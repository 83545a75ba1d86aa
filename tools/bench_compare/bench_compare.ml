(* bench_compare — diff two BENCH_sweeps.json (or BENCH_scale.json)
   files and fail on wall regressions.

   Usage: bench_compare OLD.json NEW.json [--threshold PCT]

   Per table it compares the sequential wall clock — the one number
   that is comparable across job counts — and the "whole_run" block's
   parallel wall, which every sweeps file carries. T-scale files carry one record per
   "{\"row\": ..." marker instead; for those the Gale-Shapley wall
   (gs_ms) and the sequential verification wall (verify_sequential_ms)
   are compared per row. BENCH_serve.json carries one record per
   "{\"workload\": ..." marker; for those the drain time (ticks) and
   latency quantiles (p50_ticks, p99_ticks) are compared — virtual
   scheduler ticks, but the same gate applies. BENCH_chaos.json carries
   a recovery grid with one record per "{\"recovery_row\": ..." marker;
   for those the rounds-to-recovery aggregates (max and mean engine
   rounds) are compared — growth means recovery from state corruption
   got slower. Exits 1 if any compared
   number regresses by more than the threshold (default 20%) AND by
   more than 1 unit (quick runs have millisecond-scale walls where
   percentages alone are noise). Tables/rows present on only one side
   are reported but don't fail the diff: the bench grows across PRs.

   The container has no JSON library, so this is a minimal scanner over
   the bench writers' known layouts ("key": number pairs inside each
   record). It reads the sweeps, scale, serve, plane and chaos
   layouts. *)

let read_file path =
  try
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  with Sys_error msg ->
    Printf.eprintf "bench_compare: %s\n" msg;
    exit 2

(* Index of [sub] in [s] at or after [pos], if any. *)
let find s pos sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  if m = 0 then None else go (max 0 pos)

(* Parse the number starting at [pos] (after optional spaces). *)
let float_at s pos =
  let n = String.length s in
  let pos = ref pos in
  while !pos < n && s.[!pos] = ' ' do incr pos done;
  let start = !pos in
  while
    !pos < n
    &&
    match s.[!pos] with
    | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
    | _ -> false
  do
    incr pos
  done;
  float_of_string_opt (String.sub s start (!pos - start))

(* ["key": v] within s.[pos..stop), if present. *)
let key_float s ~pos ~stop key =
  let needle = Printf.sprintf "\"%s\":" key in
  match find s pos needle with
  | Some i when i < stop -> float_at s (i + String.length needle)
  | Some _ | None -> None

(* One scanned record: its name plus the requested "key": number values
   (in [keys] order), scoped to the span between this marker and the
   next. *)
let scan s ~marker ~keys =
  let rec go pos acc =
    match find s pos marker with
    | None -> List.rev acc
    | Some i -> (
      let name_start = i + String.length marker in
      match String.index_from_opt s name_start '"' with
      | None -> List.rev acc
      | Some name_end ->
        let name = String.sub s name_start (name_end - name_start) in
        let stop =
          match find s name_end marker with
          | Some j -> j
          | None -> String.length s
        in
        let values =
          List.map (fun key -> key, key_float s ~pos:name_end ~stop key) keys
        in
        go stop ((name, values) :: acc))
  in
  go 0 []

type record = {
  table : string;
  sequential_ms : float option;
}

let records s =
  List.map
    (fun (table, values) ->
      { table; sequential_ms = List.assoc "sequential_ms" values })
    (scan s ~marker:"{\"table\": \"" ~keys:[ "sequential_ms" ])

(* BENCH_scale.json rows: per-row Gale-Shapley and sequential
   verification walls. *)
let scale_rows s =
  scan s ~marker:"{\"row\": \"" ~keys:[ "gs_ms"; "verify_sequential_ms" ]

(* BENCH_serve.json workloads: drain time and latency quantiles, all in
   virtual scheduler ticks (deterministic across runs and job counts). *)
let serve_rows s =
  scan s ~marker:"{\"workload\": \"" ~keys:[ "ticks"; "p50_ticks"; "p99_ticks" ]

(* BENCH_plane.json workloads: the message-plane micro-bench's three
   legs (arena encode, engine delivery pass, slice decode). *)
let plane_rows s =
  scan s ~marker:"{\"plane\": \"" ~keys:[ "encode_ms"; "deliver_ms"; "decode_ms" ]

(* BENCH_chaos.json recovery grid: rounds-to-recovery per
   (schedule#seed) row — deterministic engine rounds rather than walls,
   but growth means recovery from state corruption got slower. *)
let recovery_rows s =
  scan s ~marker:"{\"recovery_row\": \""
    ~keys:[ "max_rounds_to_recovery"; "mean_rounds_to_recovery" ]

(* The whole_run block's parallel wall. A sweeps file (one with table
   records) without one is malformed; other files have none. *)
let whole_run_parallel_ms path s ~tables =
  match find s 0 "\"whole_run\":" with
  | None when tables ->
    Printf.eprintf "bench_compare: %s: sweeps file without a whole_run block\n" path;
    exit 2
  | None -> None
  | Some i ->
    let stop =
      match String.index_from_opt s i '}' with
      | Some j -> j
      | None -> String.length s
    in
    key_float s ~pos:i ~stop "parallel_ms"

let () =
  let threshold = ref 20.0 in
  let paths = ref [] in
  let rec parse = function
    | "--threshold" :: v :: rest ->
      (match float_of_string_opt v with
      | Some t when t > 0. -> threshold := t
      | Some _ | None ->
        Printf.eprintf "bench_compare: --threshold %s: expected a positive number\n" v;
        exit 2);
      parse rest
    | arg :: rest ->
      paths := arg :: !paths;
      parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let old_path, new_path =
    match List.rev !paths with
    | [ o; n ] -> o, n
    | _ ->
      Printf.eprintf "usage: bench_compare OLD.json NEW.json [--threshold PCT]\n";
      exit 2
  in
  let old_s = read_file old_path and new_s = read_file new_path in
  let olds = records old_s and news = records new_s in
  let regressions = ref 0 in
  let compare_value ?(unit = "ms") label old_v new_v =
    let pct = (new_v -. old_v) /. old_v *. 100. in
    let regressed =
      old_v > 0.
      && new_v > old_v *. (1. +. (!threshold /. 100.))
      && new_v -. old_v > 1.0
    in
    Printf.printf "  %-40s %10.3f -> %10.3f %s  (%+.1f%%)%s\n" label old_v
      new_v unit pct
      (if regressed then "  REGRESSION" else "");
    if regressed then incr regressions
  in
  let compare_ms = compare_value ~unit:"ms" in
  Printf.printf "bench_compare: %s -> %s (threshold %.0f%%)\n" old_path new_path
    !threshold;
  let old_rows = scale_rows old_s and new_rows = scale_rows new_s in
  let old_serve = serve_rows old_s and new_serve = serve_rows new_s in
  let old_plane = plane_rows old_s and new_plane = plane_rows new_s in
  let old_recovery = recovery_rows old_s and new_recovery = recovery_rows new_s in
  if
    olds <> [] || news <> []
    || (old_rows = [] && new_rows = [] && old_serve = [] && new_serve = []
       && old_plane = [] && new_plane = [] && old_recovery = []
       && new_recovery = [])
  then begin
    Printf.printf "sequential wall per table:\n";
    List.iter
      (fun (n : record) ->
        match List.find_opt (fun (o : record) -> o.table = n.table) olds with
        | None -> Printf.printf "  %-40s (new table, no baseline)\n" n.table
        | Some o -> (
          match o.sequential_ms, n.sequential_ms with
          | Some om, Some nm -> compare_ms n.table om nm
          | _ -> Printf.printf "  %-40s (no sequential_ms to compare)\n" n.table))
      news;
    List.iter
      (fun (o : record) ->
        if not (List.exists (fun (n : record) -> n.table = o.table) news) then
          Printf.printf "  %-40s (dropped from new run)\n" o.table)
      olds
  end;
  if old_rows <> [] || new_rows <> [] then begin
    Printf.printf "gs + sequential-verify wall per scale row:\n";
    List.iter
      (fun (name, new_values) ->
        match List.assoc_opt name old_rows with
        | None -> Printf.printf "  %-40s (new row, no baseline)\n" name
        | Some old_values ->
          List.iter
            (fun (key, nv) ->
              match List.assoc_opt key old_values, nv with
              | Some (Some om), Some nm ->
                compare_ms (Printf.sprintf "%s %s" name key) om nm
              | _ ->
                Printf.printf "  %-40s (no %s to compare)\n" name key)
            new_values)
      new_rows;
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name new_rows) then
          Printf.printf "  %-40s (dropped from new run)\n" name)
      old_rows
  end;
  if old_serve <> [] || new_serve <> [] then begin
    Printf.printf "ticks + latency quantiles per serve workload:\n";
    List.iter
      (fun (name, new_values) ->
        match List.assoc_opt name old_serve with
        | None -> Printf.printf "  %-40s (new workload, no baseline)\n" name
        | Some old_values ->
          List.iter
            (fun (key, nv) ->
              match List.assoc_opt key old_values, nv with
              | Some (Some ov), Some nv ->
                compare_value ~unit:"ticks"
                  (Printf.sprintf "%s %s" name key)
                  ov nv
              | _ -> Printf.printf "  %-40s (no %s to compare)\n" name key)
            new_values)
      new_serve;
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name new_serve) then
          Printf.printf "  %-40s (dropped from new run)\n" name)
      old_serve
  end;
  if old_plane <> [] || new_plane <> [] then begin
    Printf.printf "message-plane leg walls per workload:\n";
    List.iter
      (fun (name, new_values) ->
        match List.assoc_opt name old_plane with
        | None -> Printf.printf "  %-40s (new workload, no baseline)\n" name
        | Some old_values ->
          List.iter
            (fun (key, nv) ->
              match List.assoc_opt key old_values, nv with
              | Some (Some om), Some nm ->
                compare_ms (Printf.sprintf "%s %s" name key) om nm
              | _ ->
                Printf.printf "  %-40s (no %s to compare)\n" name key)
            new_values)
      new_plane;
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name new_plane) then
          Printf.printf "  %-40s (dropped from new run)\n" name)
      old_plane
  end;
  if old_recovery <> [] || new_recovery <> [] then begin
    Printf.printf "rounds-to-recovery per recovery-grid row:\n";
    List.iter
      (fun (name, new_values) ->
        match List.assoc_opt name old_recovery with
        | None -> Printf.printf "  %-40s (new row, no baseline)\n" name
        | Some old_values ->
          List.iter
            (fun (key, nv) ->
              match List.assoc_opt key old_values, nv with
              | Some (Some ov), Some nv ->
                compare_value ~unit:"rounds"
                  (Printf.sprintf "%s %s" name key)
                  ov nv
              | _ -> Printf.printf "  %-40s (no %s to compare)\n" name key)
            new_values)
      new_recovery;
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name new_recovery) then
          Printf.printf "  %-40s (dropped from new run)\n" name)
      old_recovery
  end;
  (match
     ( whole_run_parallel_ms old_path old_s ~tables:(olds <> []),
       whole_run_parallel_ms new_path new_s ~tables:(news <> []) )
   with
  | Some om, Some nm ->
    Printf.printf "whole-run parallel wall:\n";
    compare_ms "whole_run" om nm
  | _ -> ());
  if !regressions > 0 then begin
    Printf.eprintf "bench_compare: %d regression(s) beyond %.0f%%\n"
      !regressions !threshold;
    exit 1
  end
  else print_endline "bench_compare: no regressions beyond threshold"
