open Bsm_prelude
module Engine = Bsm_runtime.Engine
module Net = Bsm_runtime.Net
module Topology = Bsm_topology.Topology
module Wire = Bsm_wire.Wire
module Crypto = Bsm_crypto.Crypto

type auth_mode =
  | Majority
  | Signed of {
      signer : Crypto.Signer.t;
      verifier : Crypto.Verifier.t;
    }

let stride = function
  | Topology.Fully_connected -> 1
  | Topology.One_sided | Topology.Bipartite -> 2

(* --- wire format ------------------------------------------------------- *)

type payload = {
  src : Party_id.t;
  dst : Party_id.t;
  vround : int;
  id : int;
  body : string;
  signature : Crypto.Signature.t option;
}

let payload_codec =
  Wire.map
    ~inject:(fun ((src, dst), (vround, id), (body, signature)) ->
      { src; dst; vround; id; body; signature })
    ~project:(fun p -> (p.src, p.dst), (p.vround, p.id), (p.body, p.signature))
    (Wire.triple
       (Wire.pair Wire.party_id Wire.party_id)
       (Wire.pair Wire.uint Wire.uint)
       (Wire.pair Wire.string (Wire.option Crypto.Signature.codec)))

type relay =
  | Direct of string
  | Request of payload
  | Forward of payload

let relay_codec =
  let open Wire in
  variant ~name:"relay"
    [
      pack
        (case 0 string
           ~inject:(fun b -> Direct b)
           ~match_:(function
             | Direct b -> Some b
             | Request _ | Forward _ -> None));
      pack
        (case 1 payload_codec
           ~inject:(fun p -> Request p)
           ~match_:(function
             | Request p -> Some p
             | Direct _ | Forward _ -> None));
      pack
        (case 2 payload_codec
           ~inject:(fun p -> Forward p)
           ~match_:(function
             | Forward p -> Some p
             | Direct _ | Request _ -> None));
    ]

(* The signature covers the payload with the signature field blanked. *)
let signing_bytes p = Wire.encode payload_codec { p with signature = None }

(* --- forwarding duty ---------------------------------------------------- *)

let request_tag = '\001'
let forward_tag = '\002'

(* [src], [dst], [vround] and [id] sit at a fixed position right after
   the variant tag, so relays and receivers can read them without paying
   for the body (the expensive field: a preference list, a broadcast
   round's worth of votes). [None] on anything that doesn't parse that
   far — the caller treats it like a malformed frame. *)
let peek_header (s : Wire.Slice.t) =
  try
    let d = Wire.Dec.of_slice s in
    let _tag = Wire.Dec.tag d in
    let src = Wire.party_id.Wire.read d in
    let dst = Wire.party_id.Wire.read d in
    let hvround = Wire.Dec.uint d in
    let id = Wire.Dec.uint d in
    Some (src, dst, hvround, id)
  with Wire.Malformed _ -> None

(* A [Forward] differs from the [Request] it answers only in the leading
   variant tag, so a forwarder can reuse the received bytes wholesale —
   replay the span with one byte rewritten instead of walking the codec
   again. The write-only codec below streams the received view straight
   into the sender's round arena (tag byte, then the rest of the span),
   so forwarding allocates nothing outside the arena. The receiver
   decodes the same payload either way (and the signature check
   re-encodes canonically), so behavior is unchanged. *)
let forward_slice_codec : Wire.Slice.t Wire.t =
  {
    Wire.write =
      (fun e (s : Wire.Slice.t) ->
        Wire.Enc.append e "\002";
        Wire.Enc.append_sub e s.Wire.Slice.base ~off:(s.Wire.Slice.off + 1)
          ~len:(Wire.Slice.length s - 1));
    read = (fun _ -> raise (Wire.Malformed "forward_slice_codec is write-only"));
  }

(* Forwarding needs only the header: a relay replays the claimed-[src]
   frame towards [dst] verbatim (body and all), and the receiver is the
   one who judges the payload — signature check or majority vote. A
   frame whose body is garbage is forwarded like any other and dies at
   the receiver's decode, exactly as a byzantine relay could arrange
   anyway. *)
let forward_payload (env : Engine.env) ~topology ~from ~(data : Wire.Slice.t) =
  match peek_header data with
  | Some (src, dst, _, _)
    when Party_id.equal from src
         && Topology.connected topology env.self dst
         && not (Party_id.equal dst env.self) ->
    env.send_w forward_slice_codec dst data
  | Some _ | None -> ()

let forward_duty (env : Engine.env) ~topology (e : Engine.envelope) =
  (* Only Request frames matter here, and most traffic is Direct — check
     the leading tag byte before paying for any parsing. *)
  if Wire.Slice.length e.data > 0 && Wire.Slice.get e.data 0 = request_tag then
    forward_payload env ~topology ~from:e.src ~data:e.data

(* --- the virtual net ----------------------------------------------------- *)

let virtual_net (env : Engine.env) ~topology ~auth =
  let self = env.self in
  let k = env.k in
  let stride = stride topology in
  let opposite = Party_id.side_members (Side.opposite (Party_id.side self)) ~k in
  let vround = ref 0 in
  let next_id = ref 0 in
  (* (src, id) pairs already delivered, for replay suppression in signed
     mode; majority mode is replay-proof by the honest-majority argument
     but deduplicates identically for cheap idempotence. *)
  let delivered = Hashtbl.create 64 in
  (* The channel layer's own round-local state is corruptible too: a
     scrambled [vround] desynchronizes this party's virtual clock, a
     scrambled [next_id] collides or skips message ids — failure modes a
     byzantine relay could never force on an honest party, but an
     arbitrary-initial-state start can. *)
  env.register_state Wire.uint vround;
  env.register_state Wire.uint next_id;
  let send dst body =
    if Party_id.equal dst self then ()
    else if Topology.connected topology self dst then
      env.send_w relay_codec dst (Direct body)
    else begin
      let p =
        { src = self; dst; vround = !vround; id = !next_id; body; signature = None }
      in
      incr next_id;
      let p =
        match auth with
        | Majority -> p
        | Signed { signer; _ } ->
          { p with signature = Some (Crypto.Signer.sign signer (signing_bytes p)) }
      in
      (* One arena encode (and one signature already paid above) shared
         by every relay: the request bytes are identical per target. *)
      env.send_multi_w relay_codec opposite (Request p)
    end
  in
  let sync () =
    let direct = ref [] in
    (* Forward frames (tag 2) are kept as raw envelopes (forwarder and
       span), in both modes: the tag byte alone says what they are, and
       each mode below decides which copies are worth a body decode. *)
    let fwd_frames = ref [] in
    for _ = 1 to stride do
      let inbox = env.next_round () in
      List.iter
        (fun (e : Engine.envelope) ->
          let tag =
            if Wire.Slice.length e.data > 0 then Wire.Slice.get e.data 0
            else '\255'
          in
          if tag = request_tag then
            (* Relay duty never needs the body — header peek only. *)
            forward_payload env ~topology ~from:e.src ~data:e.data
          else if tag = forward_tag then fwd_frames := e :: !fwd_frames
          else
            match Wire.decode_slice relay_codec e.data with
            | Ok (Direct body) -> direct := (e.src, body) :: !direct
            | Ok (Request _ | Forward _) | Error _ -> ())
        inbox
    done;
    let fresh p =
      Party_id.equal p.dst self && p.vround = !vround
      && not (Hashtbl.mem delivered (p.src, p.id))
    in
    let deliver p =
      Hashtbl.replace delivered (p.src, p.id) ();
      p.src, p.body
    in
    let relayed =
      match auth with
      | Signed { verifier; _ } ->
        (* Only the first fresh copy per (src, id) pays for a body decode
           and a signature check. *)
        List.filter_map
          (fun (e : Engine.envelope) ->
            match peek_header e.data with
            | Some (src, dst, hvround, id)
              when Party_id.equal dst self && hvround = !vround
                   && not (Hashtbl.mem delivered (src, id)) -> begin
              match Wire.decode_slice relay_codec e.data with
              | Ok (Forward ({ signature = Some signature; _ } as p))
                when fresh p
                     && Crypto.Verifier.verify verifier ~signer:p.src
                          ~msg:(signing_bytes p) signature ->
                Some (deliver p)
              | Ok _ | Error _ -> None
            end
            | Some _ | None -> None)
          !fwd_frames
      | Majority ->
        (* Accept a payload vouched for by a strict majority of distinct
           forwarders on the opposite side. Honest relays forward
           byte-identical frames, so the copies are grouped by their raw
           bytes first and each distinct frame is decoded once. Grouping
           on bytes alone would split a vote, though: a varint may be
           overlong, so one payload has many encodings. The byte groups
           are therefore merged by the payload's canonical encoding,
           which keeps the groups, their first-seen order, the payload
           [p] (that of the first copy) and the forwarder sets exactly
           those of a vote over every decoded copy keyed canonically. *)
        Util.group_by
          ~key:(fun (e : Engine.envelope) -> Wire.Slice.to_string e.data)
          ~equal_key:String.equal !fwd_frames
        |> List.filter_map (fun (bytes, copies) ->
               match Wire.decode relay_codec bytes with
               | Ok (Forward p) ->
                 Some (p, List.map (fun (e : Engine.envelope) -> e.src) copies)
               | Ok (Direct _ | Request _) | Error _ -> None)
        |> Util.group_by
             ~key:(fun (p, _) -> Wire.encode payload_codec p)
             ~equal_key:String.equal
        |> List.filter_map (fun (_, groups) ->
               let p = fst (List.hd groups) in
               let forwarders =
                 List.sort_uniq Party_id.compare (List.concat_map snd groups)
                 |> List.filter (fun f ->
                        Side.equal (Party_id.side f)
                          (Side.opposite (Party_id.side p.src)))
               in
               if fresh p && 2 * List.length forwarders > k then Some (deliver p)
               else None)
    in
    incr vround;
    let all = List.rev_append !direct relayed in
    List.stable_sort (fun (a, _) (b, _) -> Party_id.compare a b) all
  in
  { Net.self; stride; send; sync; register_state = env.register_cell }
