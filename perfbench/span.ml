type span = {
  name : string;
  id : int;
  parent : int;
  start : float;
  stop : float;
  self : float;
}

type agg = {
  mutable total : float;
  mutable self_s : float;
  mutable count : int;
}

type frame = {
  f_name : string;
  f_id : int;
  f_parent : int;
  f_start : float;
  mutable child : float;
}

let on = ref false
let keep = ref false
let stack : frame list ref = ref []
let next_id = ref 0
let kept : span list ref = ref []
let aggs : (string, agg) Hashtbl.t = Hashtbl.create 32
let counters : (string, int ref) Hashtbl.t = Hashtbl.create 16

let start ~keep:k () =
  stack := [];
  next_id := 0;
  kept := [];
  Hashtbl.reset aggs;
  Hashtbl.reset counters;
  keep := k;
  on := true

let stop () = on := false
let enabled () = !on

let enter name =
  if !on then begin
    let parent = match !stack with f :: _ -> f.f_id | [] -> -1 in
    incr next_id;
    stack :=
      { f_name = name; f_id = !next_id; f_parent = parent;
        f_start = Unix.gettimeofday (); child = 0. }
      :: !stack
  end

let leave () =
  if !on then
    match !stack with
    | [] -> invalid_arg "Span.leave: no open span"
    | f :: rest ->
      let stop = Unix.gettimeofday () in
      let dur = stop -. f.f_start in
      let self = dur -. f.child in
      stack := rest;
      (match rest with p :: _ -> p.child <- p.child +. dur | [] -> ());
      let a =
        match Hashtbl.find_opt aggs f.f_name with
        | Some a -> a
        | None ->
          let a = { total = 0.; self_s = 0.; count = 0 } in
          Hashtbl.add aggs f.f_name a;
          a
      in
      a.total <- a.total +. dur;
      a.self_s <- a.self_s +. self;
      a.count <- a.count + 1;
      if !keep then
        kept :=
          { name = f.f_name; id = f.f_id; parent = f.f_parent; start = f.f_start;
            stop; self }
          :: !kept

let with_ name f =
  if not !on then f ()
  else begin
    enter name;
    match f () with
    | v ->
      leave ();
      v
    | exception e ->
      leave ();
      raise e
  end

let count name n =
  if !on then
    match Hashtbl.find_opt counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.add counters name (ref n)

let agg name = Hashtbl.find_opt aggs name
let total name = match agg name with Some a -> a.total | None -> 0.
let self name = match agg name with Some a -> a.self_s | None -> 0.
let calls name = match agg name with Some a -> a.count | None -> 0
let counter name = match Hashtbl.find_opt counters name with Some r -> !r | None -> 0
let spans () = List.rev !kept

let check_tree spans =
  let eps = 1e-9 in
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec root_of s =
    if s.parent < 0 then s else root_of (Hashtbl.find by_id s.parent)
  in
  let problem =
    List.find_map
      (fun s ->
        if s.self < -.eps then Some (Printf.sprintf "span %d (%s): negative self time" s.id s.name)
        else if s.stop < s.start then Some (Printf.sprintf "span %d (%s): ends before it starts" s.id s.name)
        else if s.parent < 0 then None
        else
          match Hashtbl.find_opt by_id s.parent with
          | None -> Some (Printf.sprintf "span %d (%s): parent %d missing" s.id s.name s.parent)
          | Some p ->
            if s.start < p.start || s.stop > p.stop then
              Some (Printf.sprintf "span %d (%s) lies outside parent %d (%s)" s.id s.name p.id p.name)
            else None)
      spans
  in
  match problem with
  | Some msg -> Error msg
  | None ->
    let sums = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let r = root_of s in
        let acc = Option.value ~default:0. (Hashtbl.find_opt sums r.id) in
        Hashtbl.replace sums r.id (acc +. s.self))
      spans;
    Hashtbl.fold
      (fun id sum acc ->
        match acc with
        | Error _ -> acc
        | Ok () ->
          let r = Hashtbl.find by_id id in
          let dur = r.stop -. r.start in
          if Float.abs (sum -. dur) > 1e-6 *. Float.max 1. dur then
            Error (Printf.sprintf "root %d (%s): self times sum to %g s, span is %g s" id r.name sum dur)
          else acc)
      sums (Ok ())
