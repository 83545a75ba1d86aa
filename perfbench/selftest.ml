(* The benchmark's own checks, on tiny inputs (dune test):
   - the tail-percentile helper picks the highest percentile with at
     least 10 samples beyond it;
   - the host-speed reference kernel allocates nothing;
   - a traced run's span tree is well formed, and the engine/protocol
     split accounts for the engine.run span;
   - the instrumented runner reports exactly what Scenario.run reports;
   - traced and untraced runs of every workload give identical counters
     and output digests, with no failed item or check. *)

module W = Perfbench.Workloads
module Span = Perfbench.Span
module Pstats = Perfbench.Pstats
module Runner = Perfbench.Runner
module Core = Bsm_core
module Sweep = Bsm_harness.Sweep
module Scenario = Bsm_harness.Scenario
module Topology = Bsm_topology.Topology

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let test_tail () =
  let t n = Pstats.tail (Array.init n (fun i -> float_of_int (i + 1))) in
  check "tail: 100 samples -> p90, value 90" ((t 100).Pstats.pct = 90. && (t 100).Pstats.value = 90.);
  check "tail: 1000 samples -> p99" ((t 1000).Pstats.pct = 99.);
  check "tail: 10000 samples -> p99.9" ((t 10000).Pstats.pct = 99.9);
  check "tail: 27 samples -> p62" ((t 27).Pstats.pct = 62. && Pstats.beyond ~n:27 62. = 10);
  check "tail: 19 samples -> median, flagged" ((t 19).Pstats.pct = 50. && not (t 19).Pstats.enough);
  check "tail: 20 samples -> p50, enough" ((t 20).Pstats.pct = 50. && (t 20).Pstats.enough);
  check "percentile: nearest rank" (Pstats.percentile [| 3.; 1.; 2.; 4. |] 50. = 2.)

let test_hostspeed () =
  let module H = Perfbench.Hostspeed in
  H.reset ();
  let m = H.mark () in
  let w0 = Gc.minor_words () in
  H.burst ();
  let w1 = Gc.minor_words () in
  (* The burst itself boxes each sample's clock readings and conses it
     onto the sample list: a few words each. *)
  check "host speed: the kernel allocates nothing on the OCaml heap" (w1 -. w0 < 100.);
  check "host speed: a burst is four samples, all positive"
    (H.samples_since m = 4 && H.ref_ms_since m > 0.);
  check "host speed: no samples since a fresh mark" (Float.is_nan (H.ref_ms_since (H.mark ())))

let setting ~k ~topology ~auth ~tl ~tr =
  Core.Setting.make_exn ~k ~topology ~auth ~t_left:tl ~t_right:tr

let small_scenarios () =
  let u = Core.Setting.Unauthenticated and a = Core.Setting.Authenticated in
  List.mapi
    (fun i s ->
      Sweep.scenario_of_case
        (Sweep.case ~profile_seed:(50 + i) ~scenario_seed:(60 + i)
           ~adversary:Sweep.Random_coalition s))
    [
      setting ~k:4 ~topology:Topology.Bipartite ~auth:u ~tl:1 ~tr:0;
      setting ~k:4 ~topology:Topology.Bipartite ~auth:a ~tl:1 ~tr:4;
      setting ~k:3 ~topology:Topology.Fully_connected ~auth:u ~tl:0 ~tr:3;
      setting ~k:3 ~topology:Topology.One_sided ~auth:a ~tl:3 ~tr:2;
    ]

let test_span_tree () =
  Span.start ~keep:true ();
  List.iter (fun sc -> ignore (Runner.run sc)) (small_scenarios ());
  Span.stop ();
  let spans = Span.spans () in
  check "spans: recorded" (List.length spans > 100);
  check "spans: tree well formed"
    (match Span.check_tree spans with
    | Ok () -> true
    | Error msg ->
      print_endline msg;
      false);
  let split = Span.self "engine.run" +. Span.total "engine.send" +. Span.self "protocol" in
  check "spans: engine self + send + protocol self = engine.run"
    (Float.abs (split -. Span.total "engine.run") <= 1e-6);
  let bad =
    [
      { Span.name = "root"; id = 1; parent = -1; start = 0.; stop = 1.; self = 0.5 };
      { Span.name = "child"; id = 2; parent = 1; start = 0.5; stop = 1.5; self = 0.5 };
    ]
  in
  check "spans: a child outside its parent is rejected" (Result.is_error (Span.check_tree bad))

let test_runner_matches_scenario () =
  List.iter
    (fun sc ->
      let mine = Runner.run sc and lib = Scenario.run sc in
      check
        (Format.asprintf "runner = Scenario.run (%a)" Core.Setting.pp sc.Scenario.setting)
        (mine.Runner.metrics = lib.Scenario.metrics
        && mine.Runner.violations = lib.Scenario.violations
        && mine.Runner.decisions = lib.Scenario.outcome.Core.Problem.decisions))
    (small_scenarios ())

let test_workloads () =
  let layer_names = ref None in
  List.iter
    (fun name ->
      let run trace = W.run name { W.seed = 3; seconds = 0.2; trace; size = W.Small } in
      let plain = run false and traced = run true in
      let counters (r : W.result) = r.W.digest, r.W.counted, r.W.messages, r.W.bytes, r.W.rounds in
      List.iter (Printf.printf "     %s: %s\n" name) (plain.W.errors @ traced.W.errors);
      check (name ^ ": no failed item or check")
        (Perfbench.Report.correct plain && Perfbench.Report.correct traced);
      check (name ^ ": traced = untraced counters and digest") (counters plain = counters traced);
      check (name ^ ": end-to-end metrics finite and nonzero")
        (List.for_all (fun (_, v, _) -> Float.is_finite v && v > 0.) (Perfbench.Report.end_to_end plain));
      let names = List.map (fun (n, _, _) -> n) traced.W.layers in
      check (name ^ ": per-layer metrics finite")
        (List.for_all (fun (_, v, _) -> Float.is_finite v) traced.W.layers);
      match !layer_names with
      | None -> layer_names := Some names
      | Some first -> check (name ^ ": same per-layer metric names as every workload") (first = names))
    W.names

let () =
  test_tail ();
  test_hostspeed ();
  test_span_tree ();
  test_runner_matches_scenario ();
  test_workloads ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
