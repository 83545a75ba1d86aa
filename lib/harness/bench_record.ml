type exact =
  | Int of int
  | Str of string

type t = {
  suite : string;
  row : string;
  exact : (string * exact) list;
  measured : (string * float) list;
}

(* --- writer --------------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let quote s = "\"" ^ json_escape s ^ "\""

(* The shortest of %.15g..%.17g that reads back to the same float. *)
let float_lit f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s
  else
    let s = Printf.sprintf "%.16g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> quote k ^ ": " ^ v) fields) ^ "}"

let to_line r =
  obj
    [
      "suite", quote r.suite;
      "row", quote r.row;
      ( "exact",
        obj
          (List.map
             (fun (k, v) ->
               ( k,
                 match v with
                 | Int i -> string_of_int i
                 | Str s -> quote s ))
             r.exact) );
      ( "measured",
        obj
          (List.filter_map
             (fun (k, v) -> if Float.is_finite v then Some (k, float_lit v) else None)
             r.measured) );
    ]

let write ~path rs =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun r ->
          output_string oc (to_line r);
          output_char oc '\n')
        rs)

(* --- reader --------------------------------------------------------------- *)

exception Bad of string

(* One line of exactly the shape [to_line] writes; raises [Bad]. *)
let parse_line s =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt =
    Printf.ksprintf (fun m -> raise (Bad (Printf.sprintf "column %d: %s" (!pos + 1) m))) fmt
  in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t' || s.[!pos] = '\r') do
      incr pos
    done
  in
  let peek () =
    skip_ws ();
    if !pos < n then Some s.[!pos] else None
  in
  let expect c =
    if peek () = Some c then incr pos
    else if !pos >= n then fail "expected '%c', got end of line" c
    else fail "expected '%c', got '%c'" c s.[!pos]
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for i = 0 to 3 do
      let d =
        match s.[!pos + i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail "bad \\u escape"
      in
      v := (!v * 16) + d
    done;
    pos := !pos + 4;
    !v
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        if !pos >= n then fail "unterminated string";
        let e = s.[!pos] in
        incr pos;
        (* Only the escapes [json_escape] writes. *)
        (match e with
        | '"' | '\\' -> Buffer.add_char buf e
        | 'n' -> Buffer.add_char buf '\n'
        | 'u' ->
          let u = hex4 () in
          if u >= 0xD800 && u <= 0xDFFF then fail "surrogate \\u escape";
          Buffer.add_utf_8_uchar buf (Uchar.of_int u)
        | _ -> fail "bad escape '\\%c'" e);
        go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let token allowed =
    skip_ws ();
    let start = !pos in
    while !pos < n && allowed s.[!pos] do
      incr pos
    done;
    String.sub s start (!pos - start)
  in
  let exact_value () =
    if peek () = Some '"' then Str (string_lit ())
    else
      let tok = token (function '-' | '0' .. '9' -> true | _ -> false) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> fail "exact value must be an integer or a string"
  in
  let measured_value () =
    let tok =
      token (function '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true | _ -> false)
    in
    match float_of_string_opt tok with
    | Some f when Float.is_finite f -> f
    | _ -> fail "measured value must be a number"
  in
  let fields value =
    expect '{';
    if peek () = Some '}' then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let k = string_lit () in
        if List.mem_assoc k acc then fail "duplicate key %S" k;
        expect ':';
        let acc = (k, value ()) :: acc in
        match peek () with
        | Some ',' ->
          incr pos;
          go acc
        | Some '}' ->
          incr pos;
          List.rev acc
        | _ -> fail "expected ',' or '}'"
      in
      go []
  in
  let key k =
    let got = string_lit () in
    if got <> k then fail "expected key %S, got %S" k got;
    expect ':'
  in
  expect '{';
  key "suite";
  let suite = string_lit () in
  expect ',';
  key "row";
  let row = string_lit () in
  expect ',';
  key "exact";
  let exact = fields exact_value in
  expect ',';
  key "measured";
  let measured = fields measured_value in
  expect '}';
  if peek () <> None then fail "trailing characters";
  { suite; row; exact; measured }

let of_string s =
  let seen = Hashtbl.create 64 in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest when String.trim line = "" -> go acc (lineno + 1) rest
    | line :: rest -> (
      match parse_line line with
      | exception Bad msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
      | r when Hashtbl.mem seen (r.suite, r.row) ->
        Error (Printf.sprintf "line %d: duplicate row %S in suite %S" lineno r.row r.suite)
      | r ->
        Hashtbl.add seen (r.suite, r.row) ();
        go (r :: acc) (lineno + 1) rest)
  in
  go [] 1 (String.split_on_char '\n' s)

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Result.map_error (fun e -> path ^ ": " ^ e) (of_string s)
  | exception Sys_error msg -> Error msg

(* --- diff ----------------------------------------------------------------- *)

type change =
  | Exact of exact option * exact option
  | Measured of float * float
  | Only_old
  | Only_new

type finding = {
  f_suite : string;
  f_row : string;
  f_field : string;
  change : change;
  fails : bool;
}

let diff ~threshold olds news =
  let same (a : t) (b : t) = a.suite = b.suite && a.row = b.row in
  let finding (r : t) f_field change fails =
    { f_suite = r.suite; f_row = r.row; f_field; change; fails }
  in
  let compare_row (o : t) (n : t) =
    let keys =
      List.map fst n.exact
      @ List.filter (fun k -> not (List.mem_assoc k n.exact)) (List.map fst o.exact)
    in
    let exact =
      List.filter_map
        (fun k ->
          let a = List.assoc_opt k o.exact and b = List.assoc_opt k n.exact in
          if a = b then None else Some (finding n k (Exact (a, b)) true))
        keys
    in
    let measured =
      List.filter_map
        (fun (k, nv) ->
          Option.map
            (fun ov ->
              let regressed =
                ov > 0. && nv > ov *. (1. +. (threshold /. 100.)) && nv -. ov > 1.0
              in
              finding n k (Measured (ov, nv)) regressed)
            (List.assoc_opt k o.measured))
        n.measured
    in
    exact @ measured
  in
  List.concat_map
    (fun n ->
      match List.find_opt (same n) olds with
      | Some o -> compare_row o n
      | None -> [ finding n "" Only_new false ])
    news
  @ List.filter_map
      (fun o ->
        if List.exists (same o) news then None else Some (finding o "" Only_old false))
      olds

let pp_exact ppf = function
  | None -> Format.pp_print_string ppf "(missing)"
  | Some (Int i) -> Format.pp_print_int ppf i
  | Some (Str s) -> Format.fprintf ppf "%S" s

let pp_finding ppf f =
  let name = if f.f_field = "" then f.f_row else f.f_row ^ " " ^ f.f_field in
  Format.fprintf ppf "  %-12s %-44s " f.f_suite name;
  match f.change with
  | Only_old -> Format.fprintf ppf "(dropped from new run)"
  | Only_new -> Format.fprintf ppf "(new row, no baseline)"
  | Exact (a, b) -> Format.fprintf ppf "%a -> %a  EXACT DRIFT" pp_exact a pp_exact b
  | Measured (o, n) ->
    Format.fprintf ppf "%10.3f -> %10.3f  (%+.1f%%)%s" o n
      (if o = 0. then 0. else (n -. o) /. o *. 100.)
      (if f.fails then "  REGRESSION" else "")
