(** In-memory span recorder for the traced benchmark run.

    A span is a named interval with a parent: [enter] opens one under the
    innermost open span, [leave] closes the innermost. Closing folds the
    span into a per-name aggregate — total time, {e self} time (its
    duration minus the part its children cover) and a call count — so
    memory stays O(nesting depth) however many spans a run records.
    With [keep] set, every closed span is also retained for inspection
    ({!spans}), which the self-tests use to check the tree.

    The recorder is global and not domain-safe: only the main domain
    records spans. Everything is a no-op while recording is off. *)

type span = {
  name : string;
  id : int;
  parent : int;  (** [-1] for a root *)
  start : float;  (** seconds, [Unix.gettimeofday] *)
  stop : float;
  self : float;  (** duration minus children's durations, seconds *)
}

(** [start ~keep ()] clears every aggregate and counter and turns
    recording on. *)
val start : keep:bool -> unit -> unit

(** Turn recording off; aggregates stay readable. *)
val stop : unit -> unit

val enabled : unit -> bool
val enter : string -> unit

(** Raises [Invalid_argument] when no span is open. *)
val leave : unit -> unit

(** [with_ name f] runs [f] inside a span named [name] (closed on
    exceptions too); just [f ()] while recording is off. *)
val with_ : string -> (unit -> 'a) -> 'a

(** [count name n] adds [n] to a named counter (no-op while off). *)
val count : string -> int -> unit

(** Aggregates by span name: summed duration, summed self time (both in
    seconds) and number of spans; zeros for a name never recorded. *)
val total : string -> float

val self : string -> float
val calls : string -> int
val counter : string -> int

(** Closed spans in closing order (only with [keep]). *)
val spans : unit -> span list

(** [check_tree spans] — [Ok ()] when every span's parent exists, each
    child lies inside its parent's interval, every self time is
    non-negative and, for every root, the self times of its subtree sum
    to the root's duration; otherwise the first problem found. *)
val check_tree : span list -> (unit, string) result
