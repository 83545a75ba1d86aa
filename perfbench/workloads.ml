open Bsm_prelude
module Engine = Bsm_runtime.Engine
module Pool = Bsm_runtime.Pool
module Topology = Bsm_topology.Topology
module SM = Bsm_stable_matching
module Core = Bsm_core
module Sweep = Bsm_harness.Sweep
module Scenario = Bsm_harness.Scenario
module Adversaries = Bsm_harness.Adversaries
module Schedule = Bsm_chaos.Schedule
module Mutation = Bsm_chaos.Mutation
module Oracle = Bsm_chaos.Oracle
module Chaos_sweep = Bsm_chaos.Chaos_sweep
module Frame = Bsm_serve.Frame
module Ring = Bsm_serve.Ring
module Server = Bsm_serve.Server
module Wire = Bsm_wire.Wire

type size =
  | Full
  | Small

type params = {
  seed : int;
  seconds : float;
  trace : bool;
  size : size;
}

type result = {
  setups_s : float array;
  setups_cpu_s : float array;
  instance_ms : float array;
  instance_cpu_ms : float array;
  instances_per_s : float;
  instances_per_cpu_s : float;
  latency_ms : float array;
  max_rate_rps : float;
  counted : int;
  messages : int;
  bytes : int;
  rounds : int;
  peak_heap_mb : float;
  attempted : int;
  failed : int;
  digest : int64;
  errors : string list;
  layers : (string * float * string) list;
  notes : (string * string) list;
  ref_setup_ms : float;
  ref_run_ms : float;
  ref_samples : int;
}

let names = [ "proxy-unauth"; "pi-bsm-auth"; "serve-mix"; "chaos-k8" ]
let now = Unix.gettimeofday
let cpu = Hostspeed.thread_cpu
let process_cpu = Hostspeed.process_cpu
let lanes = 2
let sprintf = Printf.sprintf

(* A non-negative 30-bit value, a pure function of (seed, a, b): every
   input the workloads draw comes from here. *)
let derive seed a b =
  let h = Rng.mix64_absorb (Rng.mix64_absorb (Rng.mix64 (Int64.of_int seed)) a) b in
  Int64.to_int (Int64.logand h 0x3FFF_FFFFL)

let words_mb w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.
let setting ~k ~topology ~auth ~tl ~tr = Core.Setting.make_exn ~k ~topology ~auth ~t_left:tl ~t_right:tr
let unauth = Core.Setting.Unauthenticated
let auth = Core.Setting.Authenticated
let label s = Format.asprintf "%a" Core.Setting.pp s
let arr xs = Array.of_list (List.rev xs)

(* --- outcome bookkeeping ------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable digest : int64;
  mutable counted : int;
  mutable messages : int;
  mutable bytes : int;
  mutable rounds : int;
}

let tally () =
  { attempted = 0; failed = 0; errors = []; digest = Rng.mix64 0xBE4CL; counted = 0;
    messages = 0; bytes = 0; rounds = 0 }

let error t msg = if List.length t.errors < 8 then t.errors <- msg :: t.errors

let attempt t ok msg =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    error t (msg ())
  end

let count_metrics t m =
  let d, b, r = Runner.counts m in
  t.counted <- t.counted + 1;
  t.messages <- t.messages + d;
  t.bytes <- t.bytes + b;
  t.rounds <- t.rounds + r;
  t.digest <- Runner.absorb_metrics t.digest m

(* The benchmark's own [Pool.map] calls, timed for [pool.map_ms]. *)
let map_s = ref 0.
let map_calls = ref 0

let timed_map pool f xs =
  let t0 = now () in
  let ys = Pool.map pool f xs in
  map_s := !map_s +. (now () -. t0);
  incr map_calls;
  ys

(* [reps] full set-ups, each timed in wall and process CPU seconds, with
   a burst of host-speed samples before each; all but the last torn down. *)
let repeat_setup ~reps f =
  let m = Hostspeed.mark () in
  let times = Array.make reps 0. and cpus = Array.make reps 0. in
  let last = ref None in
  for i = 0 to reps - 1 do
    Option.iter (fun (pool, _) -> Pool.shutdown pool) !last;
    Hostspeed.burst ();
    let t0 = now () and c0 = process_cpu () in
    let pool = Pool.create ~jobs:lanes () in
    ignore (timed_map pool (fun x -> x) (List.init lanes Fun.id));
    let state = f pool in
    times.(i) <- now () -. t0;
    cpus.(i) <- process_cpu () -. c0;
    last := Some (pool, state)
  done;
  (times, cpus, Hostspeed.ref_ms_since m), Option.get !last

(* The counter cross-check, doubling as warm-up: one all-honest instance
   per setting must send exactly [Complexity.predicted_messages] and take
   exactly the plan's [engine_rounds]. *)
let honest_check t ~seed settings =
  List.iteri
    (fun i s ->
      let profile = SM.Profile.random (Rng.make (derive seed 7 i)) s.Core.Setting.k in
      let r = Runner.run (Scenario.make_exn ~seed:(derive seed 8 i) s profile) in
      let predicted = Core.Complexity.predicted_messages s in
      let m = r.Runner.metrics in
      if not (Runner.ok r) then error t (sprintf "honest %s: bSM not achieved" (label s))
      else if m.Engine.messages_sent <> predicted then
        error t
          (sprintf "honest %s: %d messages sent, Complexity predicts %d" (label s)
             m.Engine.messages_sent predicted)
      else if m.Engine.rounds_used <> r.Runner.plan.Core.Select.engine_rounds then
        error t
          (sprintf "honest %s: %d rounds, plan says %d" (label s) m.Engine.rounds_used
             r.Runner.plan.Core.Select.engine_rounds))
    settings

(* --- the traced split ----------------------------------------------------- *)

(* Run [items] untraced, then traced, on the same inputs; the two passes
   must agree exactly. Returns the engine/protocol layer metrics per
   instance, plus the sizes the probes reuse. *)
let split t items run_item =
  Span.stop ();
  let t0 = now () in
  let plain = List.map run_item items in
  let untraced = now () -. t0 in
  Span.start ~keep:false ();
  let t1 = now () in
  let traced = List.map run_item items in
  let traced_s = now () -. t1 in
  Span.stop ();
  let digest = List.fold_left Runner.absorb 0L in
  if digest plain <> digest traced then error t "traced split pass disagrees with the untraced one";
  let n = float_of_int (max 1 (List.length items)) in
  let sum f = List.fold_left (fun acc (r : Runner.report) -> acc + f r.Runner.metrics) 0 traced in
  let sent = sum (fun m -> m.Engine.messages_sent) in
  let delivered = sum (fun m -> m.Engine.messages_delivered) in
  let bytes = sum (fun m -> m.Engine.bytes_delivered) in
  let faults =
    sum (fun m -> m.Engine.messages_dropped_fault + m.Engine.messages_corrupted + m.Engine.cells_scrambled)
  in
  let per x = x /. n in
  let ms x = per x *. 1e3 in
  let resumes = Span.calls "protocol" in
  let inbox = Span.counter "engine.inbox_envelopes" in
  let layers =
    [
      "engine.run_ms", ms (Span.total "engine.run"), "ms";
      "engine.self_ms", ms (Span.self "engine.run"), "ms";
      "engine.send_ms", ms (Span.total "engine.send"), "ms";
      "engine.send_calls", per (float_of_int (Span.calls "engine.send")), "count";
      "engine.resumes", per (float_of_int resumes), "count";
      "engine.inbox_envelopes", per (float_of_int inbox), "count";
      "engine.delivered_ratio", float_of_int delivered /. float_of_int (max 1 sent), "ratio";
      "engine.fault_events", per (float_of_int faults), "count";
      "protocol.self_ms", ms (Span.self "protocol"), "ms";
      "problem.check_ms", ms (Span.total "problem.check"), "ms";
      "crypto.pki_setup_ms", ms (Span.total "crypto.pki_setup"), "ms";
      "select.plan_us", per (Span.total "select.plan") *. 1e6, "us";
      "trace.overhead_frac", (traced_s /. Float.max 1e-9 untraced) -. 1., "ratio";
    ]
  in
  layers, bytes / max 1 delivered, inbox / max 1 resumes

let gc_layers ~instances ~g0 ~heap_after =
  let g1 = Gc.quick_stat () in
  [
    ( "gc.minor_mb_per_instance",
      (g1.Gc.minor_words -. g0.Gc.minor_words) *. float_of_int (Sys.word_size / 8)
      /. 1e6 /. float_of_int (max 1 instances),
      "MB" );
    "gc.major_collections", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections), "count";
    "gc.heap_after_instance_mb", words_mb heap_after, "MB";
  ]

let pool_layers (s : Pool.stats) =
  [
    "pool.tasks", float_of_int s.Pool.tasks, "count";
    "pool.steals", float_of_int s.Pool.steals, "count";
    "pool.batches", float_of_int s.Pool.batches, "count";
    "pool.map_ms", !map_s *. 1e3 /. float_of_int (max 1 !map_calls), "ms";
  ]

(* --- serve plumbing: the in-process client/daemon pair ------------------- *)

type conn = {
  server : Server.t;
  req : string Ring.t;
  resp : string Ring.t;
  cenc : Wire.Enc.t;
  senc : Wire.Enc.t;
  mutable tick : int;
  mutable submits : int;
  mutable queue_full : int;
  mutable ticks : int;
  mutable retired : int;
  mutable depths : float list;
  mutable lags : float list;
}

let connect pool =
  {
    server = Server.create ~pool ~config:{ Server.default_config with Server.max_k = 64 } ();
    req = Ring.create ~capacity:8192 ();
    resp = Ring.create ~capacity:16384 ();
    cenc = Wire.Enc.create ();
    senc = Wire.Enc.create ();
    tick = 0;
    submits = 0;
    queue_full = 0;
    ticks = 0;
    retired = 0;
    depths = [];
    lags = [];
  }

let respond c resp =
  if not (Ring.try_push c.resp (Wire.encode_into c.senc Frame.response_codec resp)) then
    failwith "serve: response ring overflow"

let admit c =
  let rec loop () =
    match Ring.try_pop c.req with
    | None -> ()
    | Some bytes ->
      (match Wire.decode_exn Frame.request_codec bytes with
      | Frame.Submit spec ->
        c.submits <- c.submits + 1;
        respond c (Span.with_ "server.submit" (fun () -> Server.submit c.server ~tick:c.tick spec))
      | Frame.Bye -> ());
      loop ()
  in
  loop ()

let tick c =
  c.depths <- float_of_int (Server.pending c.server) :: c.depths;
  let dones = Span.with_ "server.tick" (fun () -> Server.tick c.server ~tick:c.tick) in
  c.tick <- c.tick + 1;
  c.ticks <- c.ticks + 1;
  c.retired <- c.retired + List.length dones;
  List.iter (respond c) dones

type drive = {
  lat_ms : float array;  (** done − due; [infinity] unless [Matched] *)
  outcomes : (Frame.outcome, string) Stdlib.result array;
  backlog : int;  (** queued + running when the last request came due *)
  wall_s : float;
}

(* Open loop: request [i] becomes due at [dues.(i)] (non-decreasing,
   absolute) whatever the server is doing; a [Queue_full] answer is
   retried on the next pass, so its wait counts in the latency. *)
let drive c (specs : Frame.spec array) dues =
  let n = Array.length specs in
  let slot = Hashtbl.create n in
  Array.iteri (fun i (s : Frame.spec) -> Hashtbl.replace slot s.Frame.req_id i) specs;
  let lat = Array.make n Float.infinity in
  let outcomes = Array.make n (Error "no response") in
  let sendq = Queue.create () in
  let next = ref 0 and finished = ref 0 and backlog = ref 0 in
  let t_start = now () in
  while !finished < n do
    let t = now () in
    while !next < n && dues.(!next) <= t do
      c.lags <- (t -. dues.(!next)) :: c.lags;
      Queue.add !next sendq;
      incr next;
      if !next = n then backlog := Server.pending c.server + Queue.length sendq
    done;
    let rec push () =
      if not (Queue.is_empty sendq) then begin
        let i = Queue.peek sendq in
        if Ring.try_push c.req (Wire.encode_into c.cenc Frame.request_codec (Frame.Submit specs.(i))) then begin
          ignore (Queue.pop sendq);
          push ()
        end
      end
    in
    push ();
    admit c;
    if Server.pending c.server > 0 then tick c;
    let t_done = now () in
    let rec collect () =
      match Ring.try_pop c.resp with
      | None -> ()
      | Some bytes ->
        (match Wire.decode_exn Frame.response_codec bytes with
        | Frame.Accepted _ -> ()
        | Frame.Rejected { req_id; reason = Frame.Queue_full } ->
          c.queue_full <- c.queue_full + 1;
          Queue.add (Hashtbl.find slot req_id) sendq
        | Frame.Rejected { req_id; reason } ->
          let i = Hashtbl.find slot req_id in
          outcomes.(i) <- Error ("refused: " ^ Frame.reject_reason_to_string reason);
          incr finished
        | Frame.Done { req_id; outcome; _ } ->
          let i = Hashtbl.find slot req_id in
          (match outcome with
          | Frame.Matched _ -> lat.(i) <- (t_done -. dues.(i)) *. 1e3
          | Frame.Failed _ | Frame.Timed_out -> ());
          outcomes.(i) <- Ok outcome;
          incr finished);
        collect ()
    in
    collect ();
    (* Idle until the next request is due: spin rather than sleep, so
       a timer wake-up never lands in the measured latency. *)
    if Server.pending c.server = 0 && Queue.is_empty sendq && !next < n then
      while now () < dues.(!next) do
        ()
      done
  done;
  { lat_ms = lat; outcomes; backlog = !backlog; wall_s = now () -. t_start }

let outcome_ok = function Ok (Frame.Matched _) -> true | Ok _ | Error _ -> false

let describe_outcome = function
  | Ok (Frame.Matched _) -> "matched"
  | Ok (Frame.Failed msg) -> "failed: " ^ msg
  | Ok Frame.Timed_out -> "timed out"
  | Error msg -> msg

let check_drive t ~what (specs : Frame.spec array) d =
  Array.iteri
    (fun i o ->
      attempt t (outcome_ok o) (fun () ->
          sprintf "%s request %d: %s" what specs.(i).Frame.req_id (describe_outcome o)))
    d.outcomes

let server_layers c =
  let per name scale = Span.total name *. scale /. float_of_int (max 1 (Span.calls name)) in
  [
    "server.submit_us", per "server.submit" 1e6, "us";
    "server.tick_ms", per "server.tick" 1e3, "ms";
    "server.instances_per_tick", float_of_int c.retired /. float_of_int (max 1 c.ticks), "count";
    "server.queue_depth_p99", Pstats.percentile (Array.of_list c.depths) 99., "count";
    "server.reject_ratio", float_of_int c.queue_full /. float_of_int (max 1 c.submits), "ratio";
    "server.generator_lag_ms_p99", Pstats.percentile (Array.of_list c.lags) 99. *. 1e3, "ms";
  ]

(* One representative maximal-budget solvable setting per
   (topology, auth) pair. *)
let six_settings ~k =
  let third = (k - 1) / 3 and half = (k - 1) / 2 in
  [
    setting ~k ~topology:Topology.Fully_connected ~auth:unauth ~tl:third ~tr:k;
    setting ~k ~topology:Topology.One_sided ~auth:unauth ~tl:third ~tr:half;
    setting ~k ~topology:Topology.Bipartite ~auth:unauth ~tl:third ~tr:half;
    setting ~k ~topology:Topology.Fully_connected ~auth ~tl:k ~tr:k;
    setting ~k ~topology:Topology.One_sided ~auth ~tl:k ~tr:(k - 1);
    setting ~k ~topology:Topology.Bipartite ~auth ~tl:third ~tr:k;
  ]

let bsm_k = 4

(* Request [j] of [stream]: every 10th a k = 4 bSM instance against a
   maximal random coalition, its setting rotating through the six so
   every run sees the same mix; the rest implicit GS instances (k in
   [8, 64], both families). Seeds and sizes come from [seed]. *)
let serve_spec ~seed ~stream j : Frame.spec =
  let d lane span = derive seed ((stream * 1_000_003) + j) lane mod span in
  let workload =
    if j mod 10 = 0 then begin
      let s = List.nth (six_settings ~k:bsm_k) (j / 10 mod 6) in
      Frame.Bsm
        {
          k = s.Core.Setting.k;
          topology = s.Core.Setting.topology;
          auth = s.Core.Setting.auth;
          t_left = s.Core.Setting.t_left;
          t_right = s.Core.Setting.t_right;
          profile_seed = d 2 1_000_000;
          scenario_seed = d 3 1_000_000;
          coalition = true;
        }
    end
    else
      Frame.Gs
        {
          k = 8 + d 1 57;
          seed = d 2 1_000_000;
          family = (if d 3 2 = 0 then SM.Flat.Uniform else SM.Flat.Common_acceptors);
        }
  in
  { Frame.req_id = (stream * 10_000_000) + j; workload }

let scenario_of_bsm (spec : Frame.spec) =
  match spec.Frame.workload with
  | Frame.Gs _ -> None
  | Frame.Bsm { k; topology; auth; t_left; t_right; profile_seed; scenario_seed; coalition } ->
    let s = Core.Setting.make_exn ~k ~topology ~auth ~t_left ~t_right in
    let adversary = if coalition then Sweep.Random_coalition else Sweep.Honest in
    Some (Sweep.scenario_of_case (Sweep.case ~profile_seed ~scenario_seed ~adversary s))

(* The serve layer driven without a workload of its own: 64 GS requests
   due at once through a fresh daemon on [pool]. *)
let server_probe pool ~seed =
  let c = connect pool in
  Span.start ~keep:false ();
  let specs =
    Array.init 64 (fun j ->
        { Frame.req_id = j;
          workload = Frame.Gs { k = 8 + j mod 57; seed = derive seed 9 j; family = SM.Flat.Uniform } })
  in
  ignore (drive c specs (Array.make 64 (now ())));
  Span.stop ();
  server_layers c

let oracle_probe () =
  let cell = List.hd (Chaos_sweep.quick_grid ()) in
  ( "oracle.run_ms",
    Probes.per_call ~iters:3 (fun () ->
        Oracle.run ~seed:cell.Chaos_sweep.chaos_seed ~schedule:cell.Chaos_sweep.schedule
          cell.Chaos_sweep.case)
    *. 1e3,
    "ms" )

(* --- proxy-unauth / pi-bsm-auth: closed loop, one client, one domain ----- *)

type proto = {
  setting : Core.Setting.t;
  n_set : int;  (** the fixed instance set each pass runs *)
  n_fixed : int;  (** the exact-count subset: the set's first instances *)
  n_split : int;  (** instances the traced split re-runs *)
}

let proto name size =
  let bip k ~auth ~tl ~tr = setting ~k ~topology:Topology.Bipartite ~auth ~tl ~tr in
  match name, size with
  | "proxy-unauth", Full ->
    { setting = bip 8 ~auth:unauth ~tl:2 ~tr:0; n_set = 25; n_fixed = 8; n_split = 4 }
  | "proxy-unauth", Small -> { setting = bip 4 ~auth:unauth ~tl:1 ~tr:0; n_set = 4; n_fixed = 3; n_split = 2 }
  | "pi-bsm-auth", Full -> { setting = bip 16 ~auth ~tl:5 ~tr:16; n_set = 20; n_fixed = 8; n_split = 3 }
  | _, _ -> { setting = bip 4 ~auth ~tl:1 ~tr:4; n_set = 4; n_fixed = 3; n_split = 2 }

(* A maximal coalition for instance [i]. Members and every strategy
   parameter are drawn from the seed; the strategy kinds (the five of
   [Adversaries.random_coalition]) are dealt so that instances 0..24
   cycle through every ordered pair for the first two members. Every
   run then sees the same strategy mix in the same order, and its
   timings vary with the seed's draws rather than with the luck of the
   strategy dice, which moves one instance's wall by up to 3x. *)
let coalition ~seed ~scenario_seed (s : Core.Setting.t) profile i =
  let rng = Rng.make (derive seed 3 i) in
  let k = s.Core.Setting.k in
  let members =
    Rng.sample rng s.Core.Setting.t_left (Party_id.side_members Side.Left ~k)
    @ Rng.sample rng s.Core.Setting.t_right (Party_id.side_members Side.Right ~k)
  in
  List.mapi
    (fun m self ->
      let input = SM.Profile.prefs profile self in
      let strategy =
        match (i + (m * (1 + (i / 5)))) mod 5 with
        | 0 -> Adversaries.silent
        | 1 -> Adversaries.noise ~seed:(Rng.int rng 1_000_000)
        | 2 -> Adversaries.crash ~setting:s ~seed:scenario_seed ~input ~self ~round:(Rng.int rng 20)
        | 3 -> Adversaries.lying ~setting:s ~seed:scenario_seed ~fake:(SM.Prefs.random rng k) ~self
        | _ ->
          Adversaries.garble_after ~setting:s ~seed:scenario_seed ~input ~self
            ~from_round:(Rng.int rng 15)
      in
      self, strategy)
    members

let run_proto name p =
  let w = proto name p.size in
  let t = tally () in
  let seconds = if p.trace then p.seconds /. 2. else p.seconds in
  let instance i =
    let s = w.setting in
    let profile = SM.Profile.random (Rng.make (derive p.seed 1 i)) s.Core.Setting.k in
    let scenario_seed = derive p.seed 2 i in
    Scenario.make_exn ~seed:scenario_seed
      ~byzantine:(coalition ~seed:p.seed ~scenario_seed s profile i)
      s profile
  in
  (* Inputs are generated on the pool, which is then shut down: with
     its idle worker domain alive, the single-domain loop below ran
     about 60% slower. *)
  let (setups_s, setups_cpu_s, ref_setup_ms), (_, (pool_stats, scenarios)) =
    repeat_setup ~reps:3 (fun pool ->
        let scenarios = Array.of_list (timed_map pool instance (List.init w.n_set Fun.id)) in
        let stats = Pool.stats pool in
        Pool.shutdown pool;
        t.errors <- [];
        honest_check t ~seed:p.seed [ w.setting ];
        stats, scenarios)
  in
  let run_mark = Hostspeed.mark () in
  Hostspeed.burst ();
  let g0 = Gc.quick_stat () in
  let times = ref [] and cpus = ref [] and lats = ref [] and heap_after = ref 0 in
  let t_start = now () in
  let deadline = t_start +. seconds in
  let prev = ref t_start and think = ref 0. and n = ref 0 in
  let run_one ~first i =
    (* A host-speed sample counts as client think time. *)
    let s0 = now () in
    Hostspeed.sample_due ();
    think := !think +. (now () -. s0);
    prev := !prev +. (now () -. s0);
    let t0 = now () and c0 = cpu () in
    let r = Runner.run scenarios.(i) in
    let c1 = cpu () and t1 = now () in
    times := ((t1 -. t0) *. 1e3) :: !times;
    cpus := ((c1 -. c0) *. 1e3) :: !cpus;
    (* Closed loop: the next instance is due when this one completes. *)
    lats := ((t1 -. !prev) *. 1e3) :: !lats;
    prev := t1;
    attempt t (Runner.ok r) (fun () -> sprintf "instance %d: bSM not achieved" i);
    if first && i < w.n_fixed then begin
      count_metrics t r.Runner.metrics;
      t.digest <- Runner.absorb t.digest r
    end;
    heap_after := max !heap_after (Gc.quick_stat ()).Gc.heap_words;
    incr n
  in
  (* Whole passes over the fixed set, so that every run weighs every
     instance alike whatever the host's speed: the first pass always
     completes, and another starts only if it should end in time. *)
  let passes = ref 0 and pass_s = ref 0. in
  while !passes = 0 || now () +. !pass_s <= deadline do
    let p0 = now () in
    for i = 0 to w.n_set - 1 do
      run_one ~first:(!passes = 0) i
    done;
    pass_s := now () -. p0;
    incr passes
  done;
  let wall = now () -. t_start -. !think in
  let n = !n in
  let cpus = arr !cpus in
  let layers =
    if not p.trace then []
    else begin
      let gc = gc_layers ~instances:n ~g0 ~heap_after:!heap_after in
      let engine, msg_bytes, inbox =
        split t (List.init w.n_split (fun i -> scenarios.(i))) (fun sc -> Runner.run sc)
      in
      let s = w.setting in
      engine @ gc @ pool_layers pool_stats
      @ Probes.all ~seed:p.seed ~k:s.Core.Setting.k ~msg_bytes ~inbox
          ~auth:(s.Core.Setting.auth = auth)
      @ Pool.with_pool ~jobs:lanes (fun pool -> server_probe pool ~seed:p.seed)
      @ [ oracle_probe () ]
    end
  in
  let ips = float_of_int n /. wall in
  {
    setups_s;
    setups_cpu_s;
    instance_ms = arr !times;
    instance_cpu_ms = cpus;
    instances_per_s = ips;
    instances_per_cpu_s = float_of_int n *. 1e3 /. Array.fold_left ( +. ) 0. cpus;
    latency_ms = arr !lats;
    max_rate_rps = ips;
    counted = t.counted;
    messages = t.messages;
    bytes = t.bytes;
    rounds = t.rounds;
    peak_heap_mb = words_mb (Gc.quick_stat ()).Gc.top_heap_words;
    attempted = t.attempted;
    failed = t.failed;
    digest = t.digest;
    errors = List.rev t.errors;
    layers;
    notes = [ "setting", label w.setting; "passes", sprintf "%d over %d instances" !passes w.n_set ];
    ref_setup_ms;
    ref_run_ms = Hostspeed.ref_ms_since run_mark;
    ref_samples = Hostspeed.samples_since run_mark;
  }

(* --- serve-mix: open loop into the daemon core ----------------------------- *)

type serve = {
  closed_s : float;  (** closed-loop phase length, seconds *)
  n_sat : int;  (** requests all due at once (saturation) *)
  fixed_rps : float;  (** the offered rate the latency metrics report *)
  fixed_s : float;  (** offered-load time at that rate *)
  step : float;  (** rate ratio between coarse rungs *)
  rungs : int;  (** coarse rungs at most *)
  refine : int;  (** bisections after the first miss *)
  rung_s : float;  (** offered-load time per other rung *)
  limit_ms : float;  (** p99 latency limit for [max_rate_rps] *)
}

let serve_cfg size seconds =
  match size with
  | Full ->
    { closed_s = 0.3 *. seconds; n_sat = int_of_float (100. *. seconds); fixed_rps = 150.;
      fixed_s = 0.25 *. seconds; step = 1.4; rungs = 10; refine = 3; rung_s = 0.03 *. seconds;
      limit_ms = 150. }
  | Small ->
    { closed_s = 0.05; n_sat = 40; fixed_rps = 200.; fixed_s = 0.1; step = 1.4; rungs = 1;
      refine = 1; rung_s = 0.1; limit_ms = 1000. }

let run_serve p =
  let cfg = serve_cfg p.size (if p.trace then p.seconds /. 2. else p.seconds) in
  let t = tally () in
  let (setups_s, setups_cpu_s, ref_setup_ms), (pool, sat_specs) =
    repeat_setup ~reps:9 (fun pool ->
        let sat = Array.of_list (timed_map pool (serve_spec ~seed:p.seed ~stream:1) (List.init cfg.n_sat Fun.id)) in
        t.errors <- [];
        honest_check t ~seed:p.seed (six_settings ~k:bsm_k);
        sat)
  in
  let c = connect pool in
  if p.trace then Span.start ~keep:false ();
  let g0 = Gc.quick_stat () in
  let heap_after = ref 0 in
  let sample_heap () = heap_after := max !heap_after (Gc.quick_stat ()).Gc.heap_words in
  (* 1. closed loop, one request at a time: the instance work itself
     ([Server.execute], what a pool lane runs), on the main domain *)
  let closed = ref [] and closed_cpu = ref [] and j = ref 0 in
  let run_mark = Hostspeed.mark () in
  Hostspeed.burst ();
  let stop = now () +. cfg.closed_s in
  while !j < 3 || now () < stop do
    Hostspeed.sample_due ();
    let spec = serve_spec ~seed:p.seed ~stream:0 !j in
    let t0 = now () and c0 = cpu () in
    let outcome, _ = Server.execute ~chaos:false ~chaos_seed:0 ~max_rounds:None spec in
    let c1 = cpu () in
    closed := ((now () -. t0) *. 1e3) :: !closed;
    closed_cpu := ((c1 -. c0) *. 1e3) :: !closed_cpu;
    attempt t (outcome_ok (Ok outcome)) (fun () ->
        sprintf "closed-loop request %d: %s" spec.Frame.req_id (describe_outcome (Ok outcome)));
    incr j
  done;
  sample_heap ();
  (* 2. saturation: the set in three parts, each due at once as a
     whole; the throughput is the median part's, per wall second and
     per CPU second of both lanes *)
  let parts =
    List.init 3 (fun q ->
        let specs = Array.sub sat_specs (q * cfg.n_sat / 3) (((q + 1) * cfg.n_sat / 3) - (q * cfg.n_sat / 3)) in
        let c0 = process_cpu () in
        let d = drive c specs (Array.make (Array.length specs) (now ())) in
        let cpu_s = process_cpu () -. c0 in
        check_drive t ~what:"saturation" specs d;
        sample_heap ();
        d, cpu_s)
  in
  let sat_outcomes = Array.concat (List.map (fun (d, _) -> d.outcomes) parts) in
  let sat_rate f =
    Pstats.median (Array.of_list (List.map (fun (d, cpu_s) -> float_of_int (Array.length d.outcomes) /. f d cpu_s) parts))
  in
  let sat_ips = sat_rate (fun d _ -> d.wall_s) and sat_cpu_ips = sat_rate (fun _ cpu_s -> cpu_s) in
  (* The open-loop phases below hold as many requests as the host's
     speed lets pile up, so the peak heap is read here. *)
  let peak_heap_mb = words_mb (Gc.quick_stat ()).Gc.top_heap_words in
  (* 3. offered load: the fixed rate the latency metrics report, then a
     coarse climb by [step] until a rate misses the limit, then
     [refine] bisections between the last rate that met it and the
     first that missed; [max_rate_rps] interpolates where the rung
     score crosses 1 between the final pair. *)
  let ladder = ref [] and stream = ref 10 in
  let offer rate secs =
    let n = max 1 (int_of_float (rate *. secs)) in
    let s = !stream in
    incr stream;
    let specs = Array.init n (serve_spec ~seed:p.seed ~stream:s) in
    let due = ref (now () +. 0.001) in
    let dues =
      Array.init n (fun j ->
          let d = !due in
          due := !due +. (float_of_int (derive p.seed (100 + s) j mod 2001) /. 1000. /. rate);
          d)
    in
    let d = drive c specs dues in
    check_drive t ~what:(sprintf "%.0f/s" rate) specs d;
    sample_heap ();
    let p99 = Pstats.percentile d.lat_ms 99. in
    (* At most 1 when the p99 meets the limit and at most one batch is
       queued or running as the last request comes due (no growing
       backlog). *)
    let score =
      Float.max (p99 /. cfg.limit_ms)
        (float_of_int d.backlog /. float_of_int Server.default_config.Server.batch)
    in
    ladder := (rate, Pstats.median d.lat_ms, p99, d.backlog, score <= 1.) :: !ladder;
    d, score
  in
  let fixed, fixed_score = offer cfg.fixed_rps cfg.fixed_s in
  (* A rung that misses is offered once more and keeps the better
     score, so one host stall does not end the climb. *)
  let rung rate =
    let _, score = offer rate cfg.rung_s in
    if score <= 1. then score else Float.min score (snd (offer rate cfg.rung_s))
  in
  let rec climb lo lo_score r =
    if r > cfg.rungs then lo, lo_score, None
    else begin
      let rate = cfg.fixed_rps *. (cfg.step ** float_of_int r) in
      let score = rung rate in
      if score <= 1. then climb rate score (r + 1) else lo, lo_score, Some (rate, score)
    end
  in
  let rec refine n lo lo_score (hi, hi_score) =
    if n = 0 || lo = 0. then lo, lo_score, hi, hi_score
    else begin
      let mid = sqrt (lo *. hi) in
      let score = rung mid in
      if score <= 1. then refine (n - 1) mid score (hi, hi_score)
      else refine (n - 1) lo lo_score (mid, score)
    end
  in
  let max_rate =
    match
      if fixed_score <= 1. then climb cfg.fixed_rps fixed_score 1
      else 0., 0., Some (cfg.fixed_rps, fixed_score)
    with
    | lo, _, None -> lo
    | lo, lo_score, Some miss ->
      let lo, lo_score, hi, hi_score = refine cfg.refine lo lo_score miss in
      if lo = 0. then hi /. hi_score
      else lo +. ((hi -. lo) *. (1. -. lo_score) /. (hi_score -. lo_score))
  in
  let serve_layers = if p.trace then server_layers c else [] in
  Span.stop ();
  (* Exact counts: the saturation set's bSM requests, re-run directly.
     Engine rounds must match what the daemon answered. *)
  let bsm =
    List.filter_map
      (fun i -> Option.map (fun sc -> i, sc) (scenario_of_bsm sat_specs.(i)))
      (List.init cfg.n_sat Fun.id)
  in
  let count_pass () =
    List.iter
      (fun (i, sc) ->
        let r = Runner.run sc in
        if not (Runner.ok r) then error t (sprintf "direct re-run of request %d: bSM not achieved" i);
        match sat_outcomes.(i) with
        | Ok (Frame.Matched { rounds; _ }) when rounds <> r.Runner.metrics.Engine.rounds_used ->
          error t (sprintf "request %d: daemon answered %d rounds, direct run took %d" i rounds
                     r.Runner.metrics.Engine.rounds_used)
        | _ -> count_metrics t r.Runner.metrics)
      bsm
  in
  count_pass ();
  Array.iteri
    (fun i o ->
      t.digest <- Rng.mix64_absorb t.digest sat_specs.(i).Frame.req_id;
      match o with
      | Ok (Frame.Matched { fingerprint; rounds }) ->
        t.digest <- Rng.mix64_absorb (Rng.mix64_absorb t.digest (Int64.to_int fingerprint)) rounds
      | _ -> t.digest <- Rng.mix64_absorb t.digest (-1))
    sat_outcomes;
  let rounds =
    Array.fold_left (fun acc o -> match o with Ok (Frame.Matched { rounds; _ }) -> acc + rounds | _ -> acc) 0 sat_outcomes
  in
  let layers =
    if not p.trace then []
    else begin
      let gc = gc_layers ~instances:(c.retired) ~g0 ~heap_after:!heap_after in
      let engine, msg_bytes, inbox = split t (List.map snd bsm) (fun sc -> Runner.run sc) in
      engine @ gc @ pool_layers (Pool.stats pool)
      @ Probes.all ~seed:p.seed ~k:bsm_k ~msg_bytes ~inbox ~auth:true
      @ serve_layers @ [ oracle_probe () ]
    end
  in
  Pool.shutdown pool;
  let ladder_note =
    String.concat "; "
      (List.rev_map
         (fun (rate, p50, p99, backlog, meets) ->
           sprintf "%.0f/s p50 %.2f ms p99 %.2f ms backlog %d %s" rate p50 p99 backlog
             (if meets then "ok" else "MISS"))
         !ladder)
  in
  {
    setups_s;
    setups_cpu_s;
    instance_ms = arr !closed;
    instance_cpu_ms = arr !closed_cpu;
    instances_per_s = sat_ips;
    instances_per_cpu_s =
      float_of_int (List.length !closed_cpu) *. 1e3 /. List.fold_left ( +. ) 0. !closed_cpu;
    latency_ms = fixed.lat_ms;
    max_rate_rps = max_rate;
    counted = cfg.n_sat;
    messages = t.messages;
    bytes = t.bytes;
    rounds;
    peak_heap_mb;
    attempted = t.attempted;
    failed = t.failed;
    digest = t.digest;
    errors = List.rev t.errors;
    layers;
    notes =
      [
        "offered rate for latency", sprintf "%.0f/s" cfg.fixed_rps;
        "p99 limit", sprintf "%.0f ms" cfg.limit_ms;
        "saturation", sprintf "%.1f requests per process CPU second (not scaled)" sat_cpu_ips;
        "ladder", ladder_note;
      ];
    ref_setup_ms;
    ref_run_ms = Hostspeed.ref_ms_since run_mark;
    ref_samples = Hostspeed.samples_since run_mark;
  }

(* --- chaos-k8: the chaos vocabulary through the oracle, on 2 lanes -------- *)

(* The five chaos T-cases (Thms 2, 5, 6/7 and a random coalition on top
   of Thm 2), every one with a spare right budget so R0-only schedules
   stay admissible; profile seeds come from the workload seed. *)
let chaos_cases ~seed ~k =
  let third = (k - 1) / 3 in
  let c i ?(adversary = Sweep.Honest) s =
    Sweep.case ~profile_seed:(derive seed 40 i) ~scenario_seed:(derive seed 41 i) ~adversary s
  in
  [
    c 0 (setting ~k ~topology:Topology.Fully_connected ~auth:unauth ~tl:third ~tr:k);
    c 1 (setting ~k ~topology:Topology.Fully_connected ~auth ~tl:k ~tr:k);
    c 2 (setting ~k ~topology:Topology.Bipartite ~auth ~tl:third ~tr:k);
    c 3 (setting ~k ~topology:Topology.One_sided ~auth ~tl:third ~tr:k);
    c 4 ~adversary:Sweep.Random_coalition
      (setting ~k ~topology:Topology.Fully_connected ~auth:unauth ~tl:third ~tr:k);
  ]

(* The standard 13-schedule vocabulary: omission, crash, partition,
   bernoulli/blackout, four mutations and two state corruptions. *)
let chaos_schedules ~k =
  let r0 = Party_id.right 0 in
  let rest = List.filter (fun p -> not (Party_id.equal p r0)) (Party_id.all ~k) in
  [
    Schedule.never;
    Schedule.send_omission ~rate:0.4 r0;
    Schedule.receive_omission ~rate:0.4 r0;
    Schedule.crash r0 ~at_round:1;
    Schedule.partition ~from_round:1 ~until_round:4 [ r0 ] rest;
    Schedule.bernoulli ~rate:0.15;
    Schedule.union
      (Schedule.blackout ~from_round:1 ~until_round:2)
      (Schedule.restrict_to_side Side.Left (Schedule.bernoulli ~rate:0.1));
    Schedule.corrupt ~rate:0.3 ~kind:Mutation.Bit_flip r0;
    Schedule.corrupt ~rate:0.3 ~kind:Mutation.Equivocate r0;
    Schedule.all
      [
        Schedule.corrupt ~rate:0.25 ~kind:Mutation.Replay r0;
        Schedule.corrupt ~rate:0.25 ~kind:Mutation.Truncate r0;
      ];
    Schedule.corrupt ~rate:0.3 ~kind:Mutation.Forge_sender r0;
    Schedule.corrupt_state ~rate:1.0 r0 ~at_round:1;
    Schedule.corrupt_state ~rate:0.6 r0 ~at_round:2;
  ]

let verdict_code = function Oracle.Ok -> 0 | Oracle.Expected_degradation -> 1 | Oracle.Violation -> 2

let run_chaos p =
  let k, n_fixed, split_every = match p.size with Full -> 8, 8, 4 | Small -> 2, 1, 1 in
  let seconds = if p.trace then p.seconds /. 2. else p.seconds in
  let cap = n_fixed + int_of_float (4. *. seconds) in
  let t = tally () in
  let (setups_s, setups_cpu_s, ref_setup_ms), (pool, batches) =
    repeat_setup ~reps:9 (fun pool ->
        let schedules = chaos_schedules ~k in
        (* Every batch draws its own profiles, coalition and chaos seed. *)
        let batches =
          timed_map pool
            (fun b ->
              Chaos_sweep.grid ~cases:(chaos_cases ~seed:(derive p.seed 43 b) ~k) ~schedules
                ~seeds:[ derive p.seed 42 b ])
            (List.init cap Fun.id)
        in
        t.errors <- [];
        honest_check t ~seed:p.seed
          (List.sort_uniq compare
             (List.map (fun (c : Sweep.case) -> c.Sweep.setting) (chaos_cases ~seed:p.seed ~k)));
        Array.of_list batches)
  in
  let g0 = Gc.quick_stat () in
  let times = ref [] and cpus = ref [] and lats = ref [] and heap_after = ref 0 in
  let busy = ref 0. and busy_cpu = ref 0. in
  let first = ref [] in
  (* Cells run two at a time, one per lane, so the host-speed kernel
     does too: a lane that runs alone sees a faster host. *)
  let lane_burst () = List.iter Hostspeed.record (Pool.map pool (fun _ -> Hostspeed.burst_ms ()) (List.init lanes Fun.id)) in
  let run_mark = Hostspeed.mark () in
  lane_burst ();
  let t_start = now () in
  let deadline = t_start +. seconds in
  let b = ref 0 in
  while !b < cap && (!b < n_fixed || now () < deadline) do
    if Hostspeed.due () then lane_burst ();
    let cells = batches.(!b) in
    (* The whole batch is due at once; each cell's latency runs from
       there to its own verdict. *)
    let t0 = now () and c0 = process_cpu () in
    let results =
      timed_map pool
        (fun cell ->
          let s = now () and sc = cpu () in
          let o = List.hd (Chaos_sweep.run_cells [ cell ]) in
          let ec = cpu () in
          o, s, now (), ec -. sc)
        cells
    in
    busy := !busy +. (now () -. t0);
    busy_cpu := !busy_cpu +. (process_cpu () -. c0);
    List.iteri
      (fun i ((o : Chaos_sweep.outcome), s, e, cell_cpu) ->
        times := ((e -. s) *. 1e3) :: !times;
        cpus := (cell_cpu *. 1e3) :: !cpus;
        lats := ((e -. t0) *. 1e3) :: !lats;
        let oracle = o.Chaos_sweep.oracle in
        attempt t (oracle.Oracle.verdict <> Oracle.Violation) (fun () ->
            sprintf "batch %d cell %d (%s, %s): VIOLATION" !b i o.Chaos_sweep.cell.Chaos_sweep.case.Sweep.label
              (Schedule.describe o.Chaos_sweep.cell.Chaos_sweep.schedule));
        if !b < n_fixed then begin
          count_metrics t oracle.Oracle.metrics;
          t.digest <- Rng.mix64_absorb t.digest (verdict_code oracle.Oracle.verdict);
          t.digest <-
            Rng.mix64_absorb t.digest
              (Hashtbl.hash (Option.map Oracle.recovery_to_string oracle.Oracle.recovery))
        end)
      results;
    if !b = 0 then first := List.map (fun (o, _, _, _) -> o) results;
    heap_after := max !heap_after (Gc.quick_stat ()).Gc.heap_words;
    incr b
  done;
  let n = List.length !times in
  let ips = float_of_int n /. !busy in
  let layers =
    if not p.trace then []
    else begin
      let gc = gc_layers ~instances:n ~g0 ~heap_after:!heap_after in
      let sample = List.filteri (fun i _ -> i mod split_every = 0) !first in
      (* The oracle's runs re-executed directly under their compiled
         schedules: the counters must be the oracle's, to the message. *)
      let engine, msg_bytes, inbox =
        split t sample (fun (o : Chaos_sweep.outcome) ->
            let cell = o.Chaos_sweep.cell in
            let faults = Schedule.compile ~seed:cell.Chaos_sweep.chaos_seed cell.Chaos_sweep.schedule in
            let r = Runner.run ~faults (Sweep.scenario_of_case cell.Chaos_sweep.case) in
            if r.Runner.metrics <> o.Chaos_sweep.oracle.Oracle.metrics then
              error t (sprintf "direct re-run of %s disagrees with the oracle's counters"
                         cell.Chaos_sweep.case.Sweep.label);
            r)
      in
      let cell_ms = Pstats.mean (arr !times) in
      engine @ gc @ pool_layers (Pool.stats pool)
      @ Probes.all ~seed:p.seed ~k ~msg_bytes ~inbox ~auth:false
      @ server_probe pool ~seed:p.seed @ [ "oracle.run_ms", cell_ms, "ms" ]
    end
  in
  Pool.shutdown pool;
  {
    setups_s;
    setups_cpu_s;
    instance_ms = arr !times;
    instance_cpu_ms = arr !cpus;
    instances_per_s = ips;
    instances_per_cpu_s = float_of_int n /. !busy_cpu;
    latency_ms = arr !lats;
    max_rate_rps = ips;
    counted = t.counted;
    messages = t.messages;
    bytes = t.bytes;
    rounds = t.rounds;
    peak_heap_mb = words_mb (Gc.quick_stat ()).Gc.top_heap_words;
    attempted = t.attempted;
    failed = t.failed;
    digest = t.digest;
    errors = List.rev t.errors;
    layers;
    notes = [ "batches", sprintf "%d x %d cells (k = %d)" !b (List.length batches.(0)) k ];
    ref_setup_ms;
    ref_run_ms = Hostspeed.ref_ms_since run_mark;
    ref_samples = Hostspeed.samples_since run_mark;
  }

let run name p =
  Span.stop ();
  Hostspeed.reset ();
  map_s := 0.;
  map_calls := 0;
  match name with
  | "proxy-unauth" | "pi-bsm-auth" -> run_proto name p
  | "serve-mix" -> run_serve p
  | "chaos-k8" -> run_chaos p
  | _ -> invalid_arg ("unknown workload " ^ name)
