(** Layer probes: direct calls into one layer's public functions,
    timed in a loop and reported per call (median of five repetitions).
    Sizes come from the caller — the traced workload's own message
    sizes, inbox counts and instance size — and inputs from its seed. *)

(** [per_call ~iters f] — seconds per call of [f], median of five timed
    loops of [iters] calls. *)
val per_call : iters:int -> (unit -> 'a) -> float

(** [all ~seed ~k ~msg_bytes ~inbox ~auth] — every probe, as
    [(metric name, value, unit)]: crypto sign/verify on [msg_bytes]
    messages, the relay codec on frames of that size (signed when
    [auth]), the serve frame codecs, [Util.group_by] over [inbox]
    forwards in [k] groups keyed by their encoding (a majority sync),
    Gale–Shapley on a random [k]-profile, the implicit k = 64 serve GS
    and its verifier, and [Schedule.compile] over the chaos vocabulary. *)
val all :
  seed:int ->
  k:int ->
  msg_bytes:int ->
  inbox:int ->
  auth:bool ->
  (string * float * string) list
