(* The benchmark entry point:
     bench.exe --workload NAME --seed N --seconds S --trace 0|1
   prints a report and, last, one JSON line; exits 1 when any output or
   check failed. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spec =
    [
      "--workload", Arg.Set_string workload, " " ^ String.concat " | " Perfbench.Workloads.names;
      "--seed", Arg.Set_int seed, " workload seed: every input derives from it";
      "--seconds", Arg.Set_float seconds, " measuring time per run";
      "--trace", Arg.Set_int trace, " 1: per-layer metrics from a span-traced run";
    ]
  in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench.exe [options]";
  if not (List.mem !workload Perfbench.Workloads.names) then begin
    prerr_endline ("bench: --workload must be one of: " ^ String.concat ", " Perfbench.Workloads.names);
    exit 2
  end;
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "bench: --seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  let params =
    { Perfbench.Workloads.seed = !seed; seconds = !seconds; trace = !trace = 1;
      size = Perfbench.Workloads.Full }
  in
  let r = Perfbench.Workloads.run !workload params in
  Perfbench.Report.print ~name:!workload params r;
  exit (if Perfbench.Report.correct r then 0 else 1)
