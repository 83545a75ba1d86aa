(** What one run prints: a human-readable block, then, as the last line
    of standard output, one JSON object with [correct], [attempted],
    [failed] and [metrics] — the end-to-end metrics for an untraced run,
    the per-layer metrics for a traced one. *)

(** The end-to-end metrics of a result, [(name, value, unit)]: CPU
    timings scaled by the run's {!Hostspeed} factor, exact counts and
    the peak heap. *)
val end_to_end : Workloads.result -> (string * float * string) list

(** The raw wall-clock figures, printed beside them but not in the JSON. *)
val wall : Workloads.result -> (string * float * string) list

(** [correct r] — no failed item and no failed check. *)
val correct : Workloads.result -> bool

(** [json r ~trace] — the result line. Non-finite values are printed as
    [-1] and mark the run incorrect. *)
val json : trace:bool -> Workloads.result -> string

val print : name:string -> Workloads.params -> Workloads.result -> unit
