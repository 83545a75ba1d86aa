(* bench_compare — diff two bench record files (BENCH_*.json, or a
   committed baseline under bench/baseline/) with Bench_record.diff.

   Usage: bench_compare OLD.json NEW.json [--threshold PCT]

   Any change in an exact field fails; a measured field fails when it
   grew by more than the threshold (default 20%) and by more than 1 unit.
   Rows present on one side only are reported and do not fail. Exits 0
   when nothing failed, 1 on a drift or regression, 2 on bad arguments
   or an unreadable or malformed file. *)

module Bench_record = Bsm_harness.Bench_record

let () =
  let bad fmt = Printf.ksprintf (fun m -> prerr_endline ("bench_compare: " ^ m); exit 2) fmt in
  let threshold = ref 20.0 in
  let rec parse paths = function
    | "--threshold" :: v :: rest ->
      (match float_of_string_opt v with
      | Some t when t > 0. -> threshold := t
      | Some _ | None -> bad "--threshold %s: expected a positive number" v);
      parse paths rest
    | arg :: rest -> parse (arg :: paths) rest
    | [] -> List.rev paths
  in
  let old_path, new_path =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [ o; n ] -> o, n
    | _ -> bad "usage: bench_compare OLD.json NEW.json [--threshold PCT]"
  in
  let read path =
    match Bench_record.read path with
    | Ok rs -> rs
    | Error msg -> bad "%s" msg
  in
  let olds = read old_path and news = read new_path in
  Printf.printf "bench_compare: %s -> %s (threshold %.0f%%)\n" old_path new_path
    !threshold;
  let findings = Bench_record.diff ~threshold:!threshold olds news in
  List.iter (Format.printf "%a@." Bench_record.pp_finding) findings;
  match List.length (List.filter (fun f -> f.Bench_record.fails) findings) with
  | 0 -> print_endline "bench_compare: no drift, no regressions beyond threshold"
  | n ->
    Printf.eprintf "bench_compare: %d failing finding(s)\n" n;
    exit 1
