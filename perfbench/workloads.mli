(** The benchmark's four workloads.

    Each run draws every input from [seed] (profiles, coalitions, serve
    specs, arrival times, chaos seeds), sets up several times (reporting
    each set-up's duration), measures for about [seconds] with
    {!Hostspeed} samples in between, checks every
    output and folds the outputs of a fixed, seed-determined subset into
    a digest with exact delivered-message counters. [trace] adds the
    per-layer split: a span-recorded pass over a sample of the
    workload's protocol instances (untraced first, then traced, on the
    same inputs), the layer probes and, where the workload does not
    drive them itself, small probes of the serve and oracle layers. *)

type size =
  | Full  (** the benchmark's inputs *)
  | Small  (** the same code paths on tiny inputs, for the self-tests *)

type params = {
  seed : int;
  seconds : float;
  trace : bool;
  size : size;
}

type result = {
  setups_s : float array;  (** one wall duration per set-up repetition *)
  setups_cpu_s : float array;  (** the same set-ups in process CPU seconds *)
  instance_ms : float array;  (** wall, per instance / request / cell *)
  instance_cpu_ms : float array;
      (** CPU time of the domain that ran it, per instance / request / cell *)
  instances_per_s : float;  (** per wall second *)
  instances_per_cpu_s : float;
      (** per CPU second: of the instances themselves in a closed loop,
          of the whole process over the chaos batches *)
  latency_ms : float array;
      (** from each request's due time; [infinity] for one that failed *)
  max_rate_rps : float;
  counted : int;  (** instances in the exact-count subset *)
  messages : int;  (** delivered messages over that subset *)
  bytes : int;  (** delivered bytes over that subset *)
  rounds : int;  (** rounds over that subset *)
  peak_heap_mb : float;
  attempted : int;
  failed : int;
  digest : int64;  (** outputs and counters of the exact-count subset *)
  errors : string list;  (** failed checks, first few *)
  layers : (string * float * string) list;  (** [trace] only *)
  notes : (string * string) list;  (** extra facts for the printed report *)
  ref_setup_ms : float;  (** median {!Hostspeed} kernel time over the set-ups *)
  ref_run_ms : float;  (** the same over the measured phase *)
  ref_samples : int;  (** kernel samples in the measured phase *)
}

val names : string list

(** [run name params] — raises [Invalid_argument] on an unknown name. *)
val run : string -> params -> result
