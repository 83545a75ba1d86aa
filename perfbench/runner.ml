open Bsm_prelude
module Engine = Bsm_runtime.Engine
module Core = Bsm_core
module SM = Bsm_stable_matching
module Crypto = Bsm_crypto.Crypto
module Wire = Bsm_wire.Wire
module Scenario = Bsm_harness.Scenario

type report = {
  violations : Core.Problem.violation list;
  decisions : (Party_id.t * Core.Problem.decision) list;
  metrics : Engine.metrics;
  all_terminated : bool;
  plan : Core.Select.plan;
}

let timed_send f =
  Span.enter "engine.send";
  match f () with
  | () -> Span.leave ()
  | exception e ->
    Span.leave ();
    raise e

let wrap (program : Engine.program) : Engine.program =
 fun env ->
  let running = ref false in
  let resume () =
    Span.enter "protocol";
    running := true
  in
  let suspend () =
    if !running then begin
      running := false;
      Span.leave ()
    end
  in
  let env =
    {
      env with
      Engine.send = (fun dst p -> timed_send (fun () -> env.Engine.send dst p));
      send_w = (fun codec dst v -> timed_send (fun () -> env.Engine.send_w codec dst v));
      send_slice = (fun dst s -> timed_send (fun () -> env.Engine.send_slice dst s));
      send_multi_w =
        (fun codec dsts v -> timed_send (fun () -> env.Engine.send_multi_w codec dsts v));
      next_round =
        (fun () ->
          suspend ();
          let inbox = env.Engine.next_round () in
          Span.count "engine.inbox_envelopes" (List.length inbox);
          resume ();
          inbox);
    }
  in
  resume ();
  match program env with
  | () -> suspend ()
  | exception e ->
    suspend ();
    raise e

let decision (r : Engine.party_result) =
  match r.Engine.status, r.Engine.out with
  | Engine.Terminated, Some bytes -> (
    match Wire.decode Core.Problem.decision_codec bytes with
    | Ok (Some partner) -> Core.Problem.Matched partner
    | Ok None -> Core.Problem.Nobody
    | Error _ -> Core.Problem.No_output)
  | Engine.Terminated, None -> Core.Problem.No_output
  | (Engine.Out_of_rounds | Engine.Crashed _), _ -> Core.Problem.No_output

let run ?faults (sc : Scenario.t) =
  let setting = sc.Scenario.setting in
  let k = setting.Core.Setting.k in
  let plan = Span.with_ "select.plan" (fun () -> Core.Select.plan_exn setting) in
  let pki = Span.with_ "crypto.pki_setup" (fun () -> Crypto.Pki.setup ~k ~seed:sc.Scenario.seed) in
  let byz = Party_set.of_list (List.map fst sc.Scenario.byzantine) in
  let program p =
    match List.find_opt (fun (q, _) -> Party_id.equal p q) sc.Scenario.byzantine with
    | Some (_, program) -> program
    | None ->
      plan.Core.Select.program ~pki ~input:(SM.Profile.prefs sc.Scenario.profile p) ~self:p
  in
  let programs = if Span.enabled () then fun p -> wrap (program p) else program in
  let cfg =
    Engine.config ~max_rounds:2000 ?faults ~k
      ~link:(Engine.Of_topology setting.Core.Setting.topology) ()
  in
  let res = Span.with_ "engine.run" (fun () -> Engine.run cfg ~programs) in
  let honest = List.filter (fun (r : Engine.party_result) -> not (Party_set.mem r.Engine.id byz)) res.Engine.parties in
  let decisions = List.map (fun (r : Engine.party_result) -> r.Engine.id, decision r) honest in
  let outcome = { Core.Problem.profile = sc.Scenario.profile; byzantine = byz; decisions } in
  let violations = Span.with_ "problem.check" (fun () -> Core.Problem.check outcome) in
  {
    violations;
    decisions;
    metrics = res.Engine.metrics;
    all_terminated =
      List.for_all (fun (r : Engine.party_result) -> r.Engine.status = Engine.Terminated) honest;
    plan;
  }

let ok r = r.violations = [] && r.all_terminated

let counts (m : Engine.metrics) =
  m.Engine.messages_delivered, m.Engine.bytes_delivered, m.Engine.rounds_used

let absorb_metrics h (m : Engine.metrics) =
  List.fold_left Rng.mix64_absorb h
    [ m.Engine.rounds_used; m.messages_sent; m.messages_delivered; m.bytes_delivered;
      m.messages_dropped_fault; m.messages_corrupted; m.cells_scrambled ]

let absorb h r =
  let h =
    List.fold_left
      (fun h (p, d) ->
        let h = Rng.mix64_absorb h (Party_id.hash p) in
        match (d : Core.Problem.decision) with
        | Core.Problem.Matched q -> Rng.mix64_absorb (Rng.mix64_absorb h 1) (Party_id.hash q)
        | Core.Problem.Nobody -> Rng.mix64_absorb h 2
        | Core.Problem.No_output -> Rng.mix64_absorb h 3)
      h r.decisions
  in
  absorb_metrics h r.metrics
