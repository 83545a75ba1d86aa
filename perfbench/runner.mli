(** [Scenario.run] redone from the public API, with spans.

    The steps are the library's own — {!Bsm_core.Select.plan_exn},
    {!Bsm_crypto.Crypto.Pki.setup}, the plan's honest programs next to
    the scenario's byzantine ones, {!Bsm_runtime.Engine.run}, decision
    decoding and {!Bsm_core.Problem.check} — so a report here equals
    [Scenario.run]'s for the same scenario (the self-tests assert it).
    While {!Span} records, each step is a span, and every party's
    program is wrapped ({!wrap}) so the engine's time splits into
    fiber time and the engine's own. *)

open Bsm_prelude
module Engine := Bsm_runtime.Engine
module Core := Bsm_core

type report = {
  violations : Core.Problem.violation list;
  decisions : (Party_id.t * Core.Problem.decision) list;
  metrics : Engine.metrics;
  all_terminated : bool;  (** every honest party's fiber returned *)
  plan : Core.Select.plan;
}

(** [wrap program] — the same program, its [env] closures timed: each
    stretch a fiber runs between resumes is a ["protocol"] span, each
    [send]/[send_w]/[send_slice]/[send_multi_w] call an ["engine.send"]
    span inside it, and the envelopes [next_round] returns add to the
    ["engine.inbox_envelopes"] counter. Span names are fixed, so the
    engine's self time is ["engine.run"] minus ["protocol"], and the
    protocol's is ["protocol"] minus ["engine.send"]. *)
val wrap : Engine.program -> Engine.program

(** [run ?faults scenario] — one execution ([max_rounds] 2000, as
    [Scenario.run]); programs are wrapped only while {!Span} records. *)
val run :
  ?faults:Engine.fault_model -> Bsm_harness.Scenario.t -> report

val ok : report -> bool

(** Delivered messages, delivered bytes and rounds, as exact counts. *)
val counts : Engine.metrics -> int * int * int

(** Fold an execution's counters (rounds, sent, delivered, bytes and
    the three fault counts) into a digest. *)
val absorb_metrics : int64 -> Engine.metrics -> int64

(** Fold a report's decisions and counters into a digest. *)
val absorb : int64 -> report -> int64
