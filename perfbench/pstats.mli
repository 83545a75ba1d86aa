(** Order statistics for the benchmark's timings (nearest-rank). *)

(** [percentile xs p] — the nearest-rank [p]-th percentile of [xs]
    ([p] in [(0, 100]]): the value at sorted index [ceil (p n / 100) - 1].
    [nan] on an empty array. *)
val percentile : float array -> float -> float

val median : float array -> float

(** Samples strictly beyond the [p]-th percentile of [n] samples:
    [n - ceil (p n / 100)]. *)
val beyond : n:int -> float -> int

type tail = {
  pct : float;  (** the percentile picked *)
  value : float;
  samples : int;  (** sample count [n] *)
  enough : bool;
      (** [false] when [n < 20]: no percentile from 50 up leaves 10
          samples beyond it, and [pct] falls back to 50 *)
}

(** [tail xs] — the highest percentile among 50, 51, …, 99, 99.9 and
    99.99 that has at least 10 samples beyond it. *)
val tail : float array -> tail

val mean : float array -> float
