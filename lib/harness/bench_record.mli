(** The one record shape every bench producer writes and
    [tools/bench_compare] reads.

    A record is one row of one suite (the sweeps tables, the chaos runs
    and recovery grid, T-scale, serve, the message plane). Its fields
    come in two kinds:

    - {e exact}: identical across runs and job counts for the same seeds
      (message, byte and round counts, proposals, fingerprints,
      rounds-to-recovery). Any change is a drift.
    - {e measured}: environment-dependent (walls, GC words, steals, the
      job count). Compared under a percentage threshold.

    A file holds one record per line, each a JSON object of exactly this
    shape, keys in this order:

    {v {"suite": "scale", "row": "k=1000 uniform", "exact": {"proposals": 6599, "fingerprint": "a4b6d8e7476f9c5f"}, "measured": {"gs_ms": 1.372}} v}

    Exact values are JSON integers or strings; measured values are JSON
    numbers. A baseline is the same file with every ["measured"] object
    emptied, so diffing against it compares counters only. *)

type exact =
  | Int of int
  | Str of string

type t = {
  suite : string;
  row : string;  (** unique within its suite *)
  exact : (string * exact) list;
  measured : (string * float) list;
}

(** [to_line r] — the record as one line of JSON, without the newline.
    Non-finite measured values are left out. *)
val to_line : t -> string

(** [write ~path rs] writes one line per record, in order. *)
val write : path:string -> t list -> unit

(** [of_string s] parses one record per line, skipping blank lines.
    Never raises: a malformed line, a duplicate key in a record, or a
    [(suite, row)] pair seen twice is [Error "line N: ..."]. *)
val of_string : string -> (t list, string) result

(** [read path] — {!of_string} over the file's contents; an unreadable
    file is an [Error] too. *)
val read : string -> (t list, string) result

type change =
  | Exact of exact option * exact option
      (** an exact field differs, or is missing on one side ([None]) *)
  | Measured of float * float  (** a measured field present on both sides *)
  | Only_old  (** the row is missing from the new run *)
  | Only_new  (** the row has no baseline *)

type finding = {
  f_suite : string;
  f_row : string;
  f_field : string;  (** [""] for a whole-row finding *)
  change : change;
  fails : bool;
}

(** [diff ~threshold old new] — the findings of [new] against [old],
    rows matched by [(suite, row)], in [new]'s order followed by the rows
    only in [old]:

    - an exact field that differs, appears or disappears fails;
    - every measured field present on both sides is reported, and fails
      when it grew by more than [threshold] percent {e and} by more than
      1 unit (quick runs have millisecond walls where percentages alone
      are noise); a measured field missing on either side is skipped, so
      an exact-only baseline compares counters only;
    - a row present on one side only is reported and does not fail.

    Equal exact fields are not reported. *)
val diff : threshold:float -> t list -> t list -> finding list

val pp_finding : Format.formatter -> finding -> unit
