open Bsm_prelude
module Topology = Bsm_topology.Topology
module Wire = Bsm_wire.Wire

type payload = string

type envelope = {
  src : Party_id.t;
  data : Wire.Slice.t;
}

(* A corruptible state cell: one protocol-level mutable value exposed to
   the state-corruption plane through its canonical wire encoding.
   [cell_encode] snapshots the current value; [cell_set] decodes candidate
   bytes into the ref and reports whether they were well-formed (a decode
   failure leaves the value untouched). *)
type state_cell = {
  cell_encode : unit -> payload;
  cell_set : payload -> bool;
}

let state_cell (type a) (codec : a Wire.t) (r : a ref) : state_cell =
  {
    cell_encode = (fun () -> Wire.encode codec !r);
    cell_set =
      (fun bytes ->
        (* Codecs may validate in [inject] by raising; treat any failure
           as "not a well-formed state". *)
        match Wire.decode codec bytes with
        | Ok v ->
          r := v;
          true
        | Error _ | (exception _) -> false);
  }

type link =
  | Of_topology of Topology.t
  | Custom of (Party_id.t -> Party_id.t -> bool)

let connected = function
  | Of_topology t -> Topology.connected t
  | Custom f -> fun u v -> (not (Party_id.equal u v)) && f u v

type fault_model = {
  drop : round:int -> src:Party_id.t -> dst:Party_id.t -> bool;
  drop_label : round:int -> src:Party_id.t -> dst:Party_id.t -> string option;
  corrupt :
    round:int ->
    src:Party_id.t ->
    dst:Party_id.t ->
    prev:payload option ->
    payload ->
    (payload * string) option;
  scramble :
    round:int ->
    party:Party_id.t ->
    cell:int ->
    attempt:int ->
    payload ->
    (payload * string) option;
}

let no_label ~round:_ ~src:_ ~dst:_ = None
let no_corrupt ~round:_ ~src:_ ~dst:_ ~prev:_ _ = None
let no_scramble ~round:_ ~party:_ ~cell:_ ~attempt:_ _ = None

let fault_model ?(label = no_label) ?(corrupt = no_corrupt)
    ?(scramble = no_scramble) drop =
  { drop; drop_label = label; corrupt; scramble }

let no_faults = fault_model (fun ~round:_ ~src:_ ~dst:_ -> false)

(* How many mutation attempts the scramble hook gets per (round, party,
   cell) before the cell is left untouched. A firing component keeps
   firing across attempts (the coin ignores [attempt]); only the mutated
   bytes vary, so the retry loop searches for a decodable — i.e.
   arbitrary but well-formed — state. *)
let max_scramble_attempts = 8

type metrics = {
  rounds_used : int;
  messages_sent : int;
  messages_delivered : int;
  messages_dropped_topology : int;
  messages_dropped_fault : int;
  messages_corrupted : int;
  messages_dropped_by_label : (string * int) list;
  bytes_sent : int;
  bytes_delivered : int;
  cells_scrambled : int;
  first_scramble_round : int option;
}

type fate = [ `Delivered | `No_channel | `Omitted | `Corrupted | `Scrambled ]

(* --- Outbox ------------------------------------------------------------ *)

(* Per-sender frame arena: every send this round appends its bytes into
   one shared encoder ([send_w] encodes in place — no per-message string
   exists at all), and frame [i] is the explicit span
   [out_offs.(i) .. out_offs.(i) + out_lens.(i)). Spans may be shared:
   a multicast ([send_multi_w]) encodes its value once and records the
   same span under every target, and [send] of the {e same} string it
   just appended ([last_data], physical equality — the [Net.send_all]
   pattern) reuses the existing span instead of appending again.
   [route] freezes the arena into one immutable base string and hands
   out [(offset, len)] views of it; the encoder's storage is then reset
   and reused next round. *)
type outbox = {
  arena : Wire.Enc.t;
  mutable out_dsts : Party_id.t array;
  mutable out_offs : int array;
  mutable out_lens : int array;
  mutable out_len : int;
  mutable last_data : payload; (* last string appended via [send] this round *)
  mutable last_off : int;
}

let outbox () =
  {
    arena = Wire.Enc.create ();
    out_dsts = [||];
    out_offs = [||];
    out_lens = [||];
    out_len = 0;
    last_data = "";
    last_off = 0;
  }

let outbox_record ob dst ~off ~len =
  let cap = Array.length ob.out_dsts in
  if ob.out_len = cap then begin
    let cap' = max 8 (2 * cap) in
    let dsts' = Array.make cap' dst
    and offs' = Array.make cap' 0
    and lens' = Array.make cap' 0 in
    Array.blit ob.out_dsts 0 dsts' 0 ob.out_len;
    Array.blit ob.out_offs 0 offs' 0 ob.out_len;
    Array.blit ob.out_lens 0 lens' 0 ob.out_len;
    ob.out_dsts <- dsts';
    ob.out_offs <- offs';
    ob.out_lens <- lens'
  end;
  ob.out_dsts.(ob.out_len) <- dst;
  ob.out_offs.(ob.out_len) <- off;
  ob.out_lens.(ob.out_len) <- len;
  ob.out_len <- ob.out_len + 1

let outbox_reset ob =
  (* Reset keeps the encoder's storage for next round; the frozen base
     string is owned by the delivered spans alone. *)
  Wire.Enc.reset ob.arena;
  ob.out_len <- 0;
  ob.last_data <- "";
  ob.last_off <- 0

let send ob dst data =
  let len = String.length data in
  if data == ob.last_data && len > 0 then outbox_record ob dst ~off:ob.last_off ~len
  else begin
    let off = Wire.Enc.length ob.arena in
    Wire.Enc.append ob.arena data;
    ob.last_data <- data;
    ob.last_off <- off;
    outbox_record ob dst ~off ~len
  end

let send_w ob c dst v =
  let start = Wire.Enc.length ob.arena in
  match c.Wire.write ob.arena v with
  | () -> outbox_record ob dst ~off:start ~len:(Wire.Enc.length ob.arena - start)
  | exception exn ->
    (* A codec that raises mid-write must not leave half a frame in the
       shared arena. *)
    Wire.Enc.truncate ob.arena start;
    raise exn

let send_multi_w ob c dsts v =
  (* One in-place encode, one span, many targets: the relay/broadcast
     fan-out pattern without re-walking the codec or duplicating the
     bytes per recipient. *)
  let start = Wire.Enc.length ob.arena in
  match c.Wire.write ob.arena v with
  | () ->
    let len = Wire.Enc.length ob.arena - start in
    if dsts = [] then Wire.Enc.truncate ob.arena start
    else List.iter (fun dst -> outbox_record ob dst ~off:start ~len) dsts
  | exception exn ->
    Wire.Enc.truncate ob.arena start;
    raise exn

let send_slice ob dst (s : Wire.Slice.t) =
  let off = Wire.Enc.length ob.arena in
  Wire.Enc.append_sub ob.arena s.base ~off:s.off ~len:s.len;
  outbox_record ob dst ~off ~len:s.len

(* --- Inbox ------------------------------------------------------------- *)

(* Per-recipient span vector: a routing sweep appends
   [(sender, base, off, len)] rows in sender-dense order (senders are
   routed in roster order), so the append order {e is} the inbox order
   — sorted by sender, send order preserved per sender — with no
   per-sender buckets and no sort. *)
type inbox = {
  mutable in_src : int array; (* sender dense id *)
  mutable in_base : string array;
  mutable in_off : int array;
  mutable in_len : int array;
  mutable in_count : int;
}

let inbox () =
  { in_src = [||]; in_base = [||]; in_off = [||]; in_len = [||]; in_count = 0 }

let inbox_push ib ~src_dense ~base ~off ~len =
  let cap = Array.length ib.in_src in
  if ib.in_count = cap then begin
    let cap' = max 8 (2 * cap) in
    let src' = Array.make cap' 0
    and base' = Array.make cap' ""
    and off' = Array.make cap' 0
    and len' = Array.make cap' 0 in
    Array.blit ib.in_src 0 src' 0 ib.in_count;
    Array.blit ib.in_base 0 base' 0 ib.in_count;
    Array.blit ib.in_off 0 off' 0 ib.in_count;
    Array.blit ib.in_len 0 len' 0 ib.in_count;
    ib.in_src <- src';
    ib.in_base <- base';
    ib.in_off <- off';
    ib.in_len <- len'
  end;
  ib.in_src.(ib.in_count) <- src_dense;
  ib.in_base.(ib.in_count) <- base;
  ib.in_off.(ib.in_count) <- off;
  ib.in_len.(ib.in_count) <- len;
  ib.in_count <- ib.in_count + 1

(* --- Router ------------------------------------------------------------ *)

type trace =
  round:int ->
  src:Party_id.t ->
  dst:Party_id.t ->
  bytes:int ->
  fate:fate ->
  label:string option ->
  unit

type t = {
  k : int;
  roster : Party_id.t array;
  connected : Party_id.t -> Party_id.t -> bool;
  faults : fault_model;
  trace : trace option;
  inboxes : inbox array; (* by recipient dense id *)
  (* Replay support for corrupting fault models: the last payload
     {e delivered} on each ordered link in any {e earlier} round, indexed
     by [src_dense * 2k + dst_dense]. Updates are staged during a
     sender's routing pass and committed only after it, so a replay
     mutation can never echo bytes from the round currently being
     routed. Gated on physical inequality with [no_corrupt]: fault-free
     runs pay nothing (no per-frame string materialization, no
     staging). *)
  track_prev : bool;
  prev : payload option array;
  mutable staged_prev : (int * payload) list;
  track_scramble : bool;
  (* The tally: every counter of [metrics] except [rounds_used]. *)
  mutable messages_sent : int;
  mutable messages_delivered : int;
  mutable dropped_topology : int;
  mutable dropped_fault : int;
  mutable messages_corrupted : int;
  (* Per-label counts; a handful of schedule components at most, so an
     assoc list beats a hash table. *)
  mutable by_label : (string * int ref) list;
  mutable bytes_sent : int;
  mutable bytes_delivered : int;
  mutable cells_scrambled : int;
  mutable first_scramble_round : int option;
}

let create ?trace ~k ~link ~faults () =
  let track_prev = faults.corrupt != no_corrupt in
  {
    k;
    roster = Array.of_list (Party_id.all ~k);
    connected = connected link;
    faults;
    trace;
    inboxes = Array.init (2 * k) (fun _ -> inbox ());
    track_prev;
    prev = (if track_prev then Array.make (4 * k * k) None else [||]);
    staged_prev = [];
    track_scramble = faults.scramble != no_scramble;
    messages_sent = 0;
    messages_delivered = 0;
    dropped_topology = 0;
    dropped_fault = 0;
    messages_corrupted = 0;
    by_label = [];
    bytes_sent = 0;
    bytes_delivered = 0;
    cells_scrambled = 0;
    first_scramble_round = None;
  }

let emit t ~round ~src ~dst ~bytes ~fate ~label =
  match t.trace with
  | None -> ()
  | Some f -> f ~round ~src ~dst ~bytes ~fate ~label

let count_label t l =
  match List.assoc_opt l t.by_label with
  | Some r -> incr r
  | None -> t.by_label <- (l, ref 1) :: t.by_label

let deliver t ~round ~src ~dst ~src_dense ~dst_dense ~base ~off ~len ~fate ~label =
  t.messages_delivered <- t.messages_delivered + 1;
  t.bytes_delivered <- t.bytes_delivered + len;
  emit t ~round ~src ~dst ~bytes:len ~fate ~label;
  inbox_push t.inboxes.(dst_dense) ~src_dense ~base ~off ~len

let route t ~round ~src ob =
  if ob.out_len > 0 then begin
    let k = t.k in
    let src_dense = Party_id.to_dense ~k src in
    let base = Wire.Enc.to_string ob.arena in
    for i = 0 to ob.out_len - 1 do
      let off = ob.out_offs.(i) in
      let len = ob.out_lens.(i) in
      let dst = ob.out_dsts.(i) in
      t.messages_sent <- t.messages_sent + 1;
      t.bytes_sent <- t.bytes_sent + len;
      let dst_index = Party_id.index dst in
      if dst_index < 0 then begin
        (* Empty the outbox first: a caller that survives the raise (a
           live party's domain) must not route these frames again. *)
        outbox_reset ob;
        invalid_arg
          (Printf.sprintf
             "Engine: destination %s has a negative index (corrupt Party_id)"
             (Party_id.to_string dst))
      end;
      (* Drop precedence: topology > fault drop > corrupt. *)
      if dst_index >= k || not (t.connected src dst) then begin
        t.dropped_topology <- t.dropped_topology + 1;
        emit t ~round ~src ~dst ~bytes:len ~fate:`No_channel ~label:None
      end
      else if t.faults.drop ~round ~src ~dst then begin
        t.dropped_fault <- t.dropped_fault + 1;
        let label = t.faults.drop_label ~round ~src ~dst in
        Option.iter (count_label t) label;
        emit t ~round ~src ~dst ~bytes:len ~fate:`Omitted ~label
      end
      else begin
        let dst_dense = Party_id.to_dense ~k dst in
        if t.track_prev then begin
          (* The corrupt hook and its replay memory are string-based:
             materialize a span-local copy so mutations never alias the
             shared arena, and deliver whatever the hook returns (bytes
             and replay memory both reflect the mutated frame). *)
          let link = (src_dense * 2 * k) + dst_dense in
          let data = String.sub base off len in
          match t.faults.corrupt ~round ~src ~dst ~prev:t.prev.(link) data with
          | None ->
            t.staged_prev <- (link, data) :: t.staged_prev;
            deliver t ~round ~src ~dst ~src_dense ~dst_dense ~base ~off ~len
              ~fate:`Delivered ~label:None
          | Some (data', l) ->
            t.messages_corrupted <- t.messages_corrupted + 1;
            count_label t l;
            t.staged_prev <- (link, data') :: t.staged_prev;
            deliver t ~round ~src ~dst ~src_dense ~dst_dense ~base:data' ~off:0
              ~len:(String.length data') ~fate:`Corrupted ~label:(Some l)
        end
        else
          deliver t ~round ~src ~dst ~src_dense ~dst_dense ~base ~off ~len
            ~fate:`Delivered ~label:None
      end
    done;
    outbox_reset ob;
    if t.track_prev then begin
      List.iter (fun (i, p) -> t.prev.(i) <- Some p) (List.rev t.staged_prev);
      t.staged_prev <- []
    end
  end

(* The inbox vector was appended in sender-dense order with send order
   preserved per sender, so the list is sorted by sender by
   construction, no sort. *)
let collect t d =
  let ib = t.inboxes.(d) in
  if ib.in_count = 0 then []
  else begin
    let acc = ref [] in
    for i = ib.in_count - 1 downto 0 do
      acc :=
        {
          src = t.roster.(ib.in_src.(i));
          data = Wire.Slice.make ib.in_base.(i) ~off:ib.in_off.(i) ~len:ib.in_len.(i);
        }
        :: !acc
    done;
    (* Drop the base-string references so arenas from this round are not
       retained past it by the reused vector. *)
    Array.fill ib.in_base 0 ib.in_count "";
    ib.in_count <- 0;
    !acc
  end

let scramble t ~round ~party cells =
  if t.track_scramble then
    List.iteri
      (fun ci c ->
        let payload = c.cell_encode () in
        let rec go attempt =
          if attempt < max_scramble_attempts then
            match t.faults.scramble ~round ~party ~cell:ci ~attempt payload with
            | None -> ()
            | Some (bytes, label) ->
              if c.cell_set bytes then begin
                t.cells_scrambled <- t.cells_scrambled + 1;
                if t.first_scramble_round = None then
                  t.first_scramble_round <- Some round;
                count_label t label;
                emit t ~round ~src:party ~dst:party ~bytes:(String.length bytes)
                  ~fate:`Scrambled ~label:(Some label)
              end
              else go (attempt + 1)
        in
        go 0)
      (List.rev cells)

let metrics ~rounds_used ts =
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 ts in
  let add_label acc (l, r) =
    match List.assoc_opt l acc with
    | Some n -> (l, n + !r) :: List.remove_assoc l acc
    | None -> (l, !r) :: acc
  in
  let first_scramble acc t =
    match acc, t.first_scramble_round with
    | Some a, Some b -> Some (min a b)
    | a, None -> a
    | None, b -> b
  in
  {
    rounds_used;
    messages_sent = sum (fun t -> t.messages_sent);
    messages_delivered = sum (fun t -> t.messages_delivered);
    messages_dropped_topology = sum (fun t -> t.dropped_topology);
    messages_dropped_fault = sum (fun t -> t.dropped_fault);
    messages_corrupted = sum (fun t -> t.messages_corrupted);
    messages_dropped_by_label =
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (List.fold_left (fun acc t -> List.fold_left add_label acc t.by_label) [] ts);
    bytes_sent = sum (fun t -> t.bytes_sent);
    bytes_delivered = sum (fun t -> t.bytes_delivered);
    cells_scrambled = sum (fun t -> t.cells_scrambled);
    first_scramble_round = List.fold_left first_scramble None ts;
  }
