module W = Workloads

let per r x = float_of_int x /. float_of_int (max 1 r.W.counted)

(* The gated metrics: CPU timings scaled to the nominal host speed
   (times divided by the run's host factor, rates multiplied by it),
   exact counts, and the peak heap. *)
let end_to_end (r : W.result) =
  let fs = r.W.ref_setup_ms /. Hostspeed.nominal_ms and f = r.W.ref_run_ms /. Hostspeed.nominal_ms in
  [
    "setup_s", Pstats.median r.W.setups_cpu_s /. fs, "s";
    "instance_cpu_ms_p50", Pstats.median r.W.instance_cpu_ms /. f, "ms";
    "instance_cpu_ms_tail", (Pstats.tail r.W.instance_cpu_ms).Pstats.value /. f, "ms";
    "instances_per_cpu_s", r.W.instances_per_cpu_s *. f, "1/s";
    "messages_per_instance", per r r.W.messages, "count";
    "bytes_per_instance", per r r.W.bytes, "B";
    "rounds_per_instance", per r r.W.rounds, "count";
    "peak_heap_mb", r.W.peak_heap_mb, "MB";
  ]

(* Raw wall-clock figures: printed, not gated, because the shared host
   moves them by more than any usable bound from run to run. *)
let wall (r : W.result) =
  [
    "setup_wall_s", Pstats.median r.W.setups_s, "s";
    "instance_ms_p50", Pstats.median r.W.instance_ms, "ms";
    "instance_ms_tail", (Pstats.tail r.W.instance_ms).Pstats.value, "ms";
    "instances_per_s", r.W.instances_per_s, "1/s";
    "latency_ms_p50", Pstats.median r.W.latency_ms, "ms";
    "latency_ms_p99", Pstats.percentile r.W.latency_ms 99., "ms";
    "max_rate_rps", r.W.max_rate_rps, "1/s";
  ]

let correct (r : W.result) = r.W.failed = 0 && r.W.errors = []

let json ~trace r =
  let metrics = if trace then r.W.layers else end_to_end r in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let field (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
      (if Float.is_finite v then Printf.sprintf "%.17g" v else "-1")
      unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct r && finite) r.W.attempted r.W.failed
    (String.concat ", " (List.map field metrics))

let print ~name (p : W.params) (r : W.result) =
  let line (n, v, u) = Printf.printf "  %-28s %14.6g %s\n" n v u in
  Printf.printf "workload %s  seed %d  seconds %g  trace %d\n" name p.W.seed p.W.seconds
    (if p.W.trace then 1 else 0);
  List.iter (fun (k, v) -> Printf.printf "  %s: %s\n" k v) r.W.notes;
  Printf.printf "  host: reference kernel %.3f ms CPU in set-up, %.3f ms in the run (median of %d), nominal %g\n"
    r.W.ref_setup_ms r.W.ref_run_ms r.W.ref_samples Hostspeed.nominal_ms;
  if p.W.trace then List.iter line r.W.layers
  else begin
    List.iter line (end_to_end r);
    print_endline "  wall clock, not scaled (printed only):";
    List.iter line (wall r);
    let tail = Pstats.tail r.W.instance_ms in
    Printf.printf "  set-ups: %s s\n"
      (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.4f") r.W.setups_s)));
    Printf.printf "  instance tail: p%g of %d samples%s\n" tail.Pstats.pct tail.Pstats.samples
      (if tail.Pstats.enough then "" else " (fewer than 20: median)");
    Printf.printf "  latency samples: %d\n" (Array.length r.W.latency_ms)
  end;
  Printf.printf "  failed_frac %g (%d of %d)\n"
    (float_of_int r.W.failed /. float_of_int (max 1 r.W.attempted))
    r.W.failed r.W.attempted;
  Printf.printf "  digest %016Lx over %d instances: %d messages, %d bytes, %d rounds delivered\n"
    r.W.digest r.W.counted r.W.messages r.W.bytes r.W.rounds;
  List.iter (Printf.printf "  CHECK FAILED: %s\n") r.W.errors;
  print_endline (json ~trace:p.W.trace r)
