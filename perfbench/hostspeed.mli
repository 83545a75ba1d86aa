(** CPU clocks and the host-speed reference the timed metrics are
    scaled by.

    The benchmark's timings are CPU times, so time the host lends to
    other guests or processes does not count. The shared host also
    slows the CPU work itself, by up to 2-3x in phases that last
    seconds to minutes, through the caches and memory it shares. To
    take that out too, each run interleaves a fixed reference kernel
    with its instances: allocation-free integer, table, sort and byte
    work in L2-sized arrays plus a stream over 16 MB. The kernel runs
    on the domains that run the instances (on both lanes at once where
    the instances do), uses no library code and allocates nothing on
    the OCaml heap, so a change to the program cannot move it. The host factor of a phase is its median kernel
    time over {!nominal_ms}; a time divided by it (a rate multiplied by
    it) is the time on a host where the kernel takes {!nominal_ms}. *)

(** CPU seconds of the calling thread (domain): [CLOCK_THREAD_CPUTIME_ID]. *)
val thread_cpu : unit -> float

(** CPU seconds of the whole process, every domain. *)
val process_cpu : unit -> float

(** The reference kernel's scale, ms: 10. *)
val nominal_ms : float

(** Forget every sample. *)
val reset : unit -> unit

(** Run the kernel four times on the calling domain and return each
    run's CPU time, ms, without recording them. Any domain may call it. *)
val burst_ms : unit -> float list

(** Record samples (from the main domain). *)
val record : float list -> unit

(** [record (burst_ms ())]. *)
val burst : unit -> unit

(** At least 0.5 s of wall time has passed since the last recording. *)
val due : unit -> bool

(** [if due () then burst ()]. Called between instances, it costs about
    6% of a run. *)
val sample_due : unit -> unit

(** The number of samples taken so far: a mark for {!ref_ms_since}. *)
val mark : unit -> int

(** Median kernel CPU time, ms, over the samples taken since the mark;
    [nan] with none. Each phase of a run is scaled by its own samples. *)
val ref_ms_since : int -> float

val samples_since : int -> int
