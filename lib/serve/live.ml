open Bsm_prelude
module Engine = Bsm_runtime.Engine
module Round = Bsm_runtime.Round

(* Two-phase lockstep: phase one ends the round's sends (after it, every
   ring holds exactly the round's frames), phase two ends its deliveries
   (after it, every ring is empty again). All 2k domains — live parties
   and ghosts alike — pass both phases of every generation, so the
   whole system is always in one well-defined round and the stop
   decisions (round cap before phase one, everyone-finished between the
   phases) are taken unanimously. *)
type barrier = {
  m : Mutex.t;
  c : Condition.t;
  parties : int;
  mutable arrived : int;
  mutable gen : int;
}

let barrier parties =
  { m = Mutex.create (); c = Condition.create (); parties; arrived = 0; gen = 0 }

let await b =
  Mutex.lock b.m;
  let g = b.gen in
  b.arrived <- b.arrived + 1;
  if b.arrived = b.parties then begin
    b.arrived <- 0;
    b.gen <- g + 1;
    Condition.broadcast b.c
  end
  else
    while b.gen = g do
      Condition.wait b.c b.m
    done;
  Mutex.unlock b.m

exception Out_of_rounds_

(* A channel's ring carries one element per round: the envelopes the
   sender's router delivered down that channel. It is pushed before
   phase one and drained before phase two — the final flush of a
   stopping party included — so it never holds more than one. *)
let ring_capacity = 1

let run ?(max_rounds = 10_000) ?(faults = Engine.no_faults) ~k ~link ~programs () =
  if k < 1 then invalid_arg "Live.run: k < 1";
  let n = 2 * k in
  if n > 64 then invalid_arg "Live.run: one domain per party; keep 2k <= 64";
  let roster = Array.of_list (Party_id.all ~k) in
  let rings =
    Array.init n (fun s ->
        Array.init n (fun d ->
            if Round.connected link roster.(s) roster.(d) then
              Some (Ring.create ~capacity:ring_capacity ())
            else None))
  in
  let b1 = barrier n and b2 = barrier n in
  let finished = Atomic.make 0 in
  let worker i =
    let self = roster.(i) in
    let round = ref 0 in
    let out = ref None in
    let outbox = Round.outbox () in
    (* This domain's router: it routes only this party's frames, so it
       owns the replay memory of the links out of [self] and a tally of
       this party's traffic. *)
    let plane = Round.create ~k ~link ~faults () in
    (* This party's corruptible state registry, reverse registration
       order. Only this domain ever touches it (registration and
       scrambling both happen on the owner's fiber). *)
    let scells : Engine.state_cell list ref = ref [] in
    (* Route the round's frames on the sender's domain and ship each
       channel's delivered envelopes down its ring — once per round at
       [next_round], and once more when the program stops, so frames
       sent before a return or crash are still delivered. *)
    let flush () =
      Round.route plane ~round:!round ~src:self outbox;
      Array.iteri
        (fun d ring ->
          match ring, Round.collect plane d with
          | _, [] | None, _ -> ()
          | Some ring, batch ->
            if not (Ring.try_push ring batch) then
              failwith "Live: a channel ring holds one batch per round")
        rings.(i)
    in
    let next_round () =
      if !round >= max_rounds then raise Out_of_rounds_;
      flush ();
      await b1;
      let inbox = ref [] in
      for s = n - 1 downto 0 do
        match rings.(s).(i) with
        | None -> ()
        | Some ring ->
          Option.iter (fun batch -> inbox := batch @ !inbox) (Ring.try_pop ring)
      done;
      await b2;
      incr round;
      (* Between-rounds state corruption, the engine's placement exactly:
         after the previous round's deliveries, before this party resumes
         in the new round. The hook is pure and only this party's cells
         are touched, so domains never race. *)
      Round.scramble plane ~round:!round ~party:self !scells;
      !inbox
    in
    let status =
      match
        programs self
          {
            Engine.self;
            k;
            round = (fun () -> !round);
            send = Round.send outbox;
            send_w = (fun c dst v -> Round.send_w outbox c dst v);
            send_slice = Round.send_slice outbox;
            send_multi_w = (fun c dsts v -> Round.send_multi_w outbox c dsts v);
            next_round;
            output = (fun p -> out := Some p);
            log = ignore;
            register_state = (fun c r -> scells := Engine.state_cell c r :: !scells);
            register_cell = (fun sc -> scells := sc :: !scells);
          }
      with
      | () -> Engine.Terminated
      | exception Out_of_rounds_ -> Engine.Out_of_rounds
      | exception exn -> Engine.Crashed (Printexc.to_string exn)
    in
    (* [!round] still holds the round the program stopped in; capture the
       termination round before the ghost loop advances it. *)
    let finished_round =
      match status with
      | Engine.Terminated -> Some !round
      | Engine.Out_of_rounds | Engine.Crashed _ -> None
    in
    (* Frames queued before the program stopped still belong to the
       round in flight. *)
    flush ();
    (* Ghost: keep the lockstep alive (and this party's rings drained)
       until everyone finished or the round cap stops the world. *)
    Atomic.incr finished;
    let live = ref (!round < max_rounds) in
    while !live do
      await b1;
      if Atomic.get finished = n then live := false
      else begin
        for s = 0 to n - 1 do
          Option.iter (fun ring -> ignore (Ring.try_pop ring)) rings.(s).(i)
        done;
        await b2;
        incr round;
        if !round >= max_rounds then live := false
      end
    done;
    { Engine.id = self; status; out = !out; finished_round }, !round, plane
  in
  let domains = Array.init n (fun i -> Domain.spawn (fun () -> worker i)) in
  let results = Array.to_list (Array.map Domain.join domains) in
  {
    Engine.parties = List.map (fun (p, _, _) -> p) results;
    metrics =
      (* The lockstep stops every domain in the same round. *)
      Round.metrics
        ~rounds_used:(List.fold_left (fun acc (_, r, _) -> max acc r) 0 results)
        (List.map (fun (_, _, plane) -> plane) results);
    trace = [];
  }

let check ?max_rounds ?faults ~k ~link ~programs () =
  let engine = Engine.run (Engine.config ?max_rounds ?faults ~k ~link ()) ~programs in
  let live = run ?max_rounds ?faults ~k ~link ~programs () in
  if live = engine then Ok live
  else
    Error
      (match
         List.find_opt (fun (e, l) -> e <> l) (List.combine engine.parties live.parties)
       with
      | Some ((e : Engine.party_result), _) ->
        Format.asprintf "%a: party result differs" Party_id.pp e.id
      | None -> "metrics differ")
