(** The synchronous round's message plane, shared by both executors.

    One round of the paper's network model is: every party sends, then
    every sent message is either delivered at the start of the next
    round or lost — along a channel the topology lacks, or to the fault
    model. This module is that round, once: the per-sender {!outbox}
    (frame arena and span record), the router that gives every frame
    its fate (topology > fault drop > corrupt, with the per-link replay
    memory), the per-recipient inboxes, the between-rounds state
    scramble, and the tally that becomes {!metrics}.

    {!Engine.run} drives it from fibers inside one domain;
    [Bsm_serve.Live] drives it from one domain per party, one router per
    domain, and sums the tallies. Neither executor decides a fate or
    counts a message itself, so the two agree on outputs {e and} metrics
    by construction. The types are documented where users meet them, in
    {!Engine}, which re-exports them. *)

open Bsm_prelude

type payload = string

type envelope = {
  src : Party_id.t;
  data : Bsm_wire.Wire.Slice.t;
}

type state_cell = {
  cell_encode : unit -> payload;
  cell_set : payload -> bool;
}

val state_cell : 'a Bsm_wire.Wire.t -> 'a ref -> state_cell

type link =
  | Of_topology of Bsm_topology.Topology.t
  | Custom of (Party_id.t -> Party_id.t -> bool)

(** [connected link u v] — does the channel [u -> v] exist? Never for
    [u = v]. *)
val connected : link -> Party_id.t -> Party_id.t -> bool

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

val fault_model :
  ?label:(round:int -> src:Party_id.t -> dst:Party_id.t -> string option) ->
  ?corrupt:
    (round:int ->
    src:Party_id.t ->
    dst:Party_id.t ->
    prev:payload option ->
    payload ->
    (payload * string) option) ->
  ?scramble:
    (round:int ->
    party:Party_id.t ->
    cell:int ->
    attempt:int ->
    payload ->
    (payload * string) option) ->
  (round:int -> src:Party_id.t -> dst:Party_id.t -> bool) ->
  fault_model

val no_corrupt :
  round:int ->
  src:Party_id.t ->
  dst:Party_id.t ->
  prev:payload option ->
  payload ->
  (payload * string) option

val no_scramble :
  round:int ->
  party:Party_id.t ->
  cell:int ->
  attempt:int ->
  payload ->
  (payload * string) option

val no_faults : fault_model
val max_scramble_attempts : int

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

(** {1 Outbox} *)

(** One sender's frames for the round in flight: one arena of bytes and
    one [(dst, offset, len)] span per message. *)
type outbox

val outbox : unit -> outbox

(** The four send operations behind [Engine.env]'s [send], [send_w],
    [send_multi_w] and [send_slice]. [send] of the string it appended
    last (physical equality, the [Net.send_all] fan-out) shares that
    span; [send_multi_w] encodes once and records one span per
    destination. A codec that raises rolls the arena back and re-raises:
    no partial frame, nothing sent. *)
val send : outbox -> Party_id.t -> payload -> unit

val send_w : outbox -> 'a Bsm_wire.Wire.t -> Party_id.t -> 'a -> unit
val send_multi_w : outbox -> 'a Bsm_wire.Wire.t -> Party_id.t list -> 'a -> unit
val send_slice : outbox -> Party_id.t -> Bsm_wire.Wire.Slice.t -> unit

(** {1 Router} *)

(** A router: fault model, replay memory, one inbox per recipient and
    the tally. *)
type t

(** Receives every fate and scramble, with the round it happened in. *)
type trace =
  round:int ->
  src:Party_id.t ->
  dst:Party_id.t ->
  bytes:int ->
  fate:fate ->
  label:string option ->
  unit

val create : ?trace:trace -> k:int -> link:link -> faults:fault_model -> unit -> t

(** [route t ~round ~src ob] freezes [ob]'s arena, gives each frame its
    fate — topology drop, fault drop (labelled by [drop_label]), or
    delivery into the recipient's inbox, through [corrupt] when that
    hook is not physically {!no_corrupt} — counts it, and empties [ob].
    Delivered frames are zero-copy views of the frozen arena; only a
    live [corrupt] hook materializes per-frame strings. The replay
    memory [prev] of a link is the last frame delivered on it by an
    {e earlier} call. Route senders in roster order so inboxes come out
    sorted by sender. Raises [Invalid_argument] on a destination with a
    negative index. *)
val route : t -> round:int -> src:Party_id.t -> outbox -> unit

(** [collect t d] empties the inbox of the party with dense index [d]:
    its envelopes sorted by sender, send order kept per sender. *)
val collect : t -> int -> envelope list

(** [scramble t ~round ~party cells] offers [cells] ({e reverse}
    registration order, as they are accumulated) to the [scramble]
    hook, retrying a firing cell until its bytes decode or
    {!max_scramble_attempts} run out, and counts each replaced cell. A
    no-op when the hook is physically {!no_scramble}. *)
val scramble : t -> round:int -> party:Party_id.t -> state_cell list -> unit

(** [metrics ~rounds_used ts] sums the tallies of [ts]. *)
val metrics : rounds_used:int -> t list -> metrics
