(** Live execution: the engine's channel interface over real
    concurrency.

    {!Bsm_runtime.Engine.run} simulates the synchronous network inside
    one domain; [Live.run] executes the {e same programs} against the
    same [Engine.env] interface, but with one OS-level domain per party
    and one SPSC {!Ring} per ordered channel — an actual message-passing
    system. [Live] is transport only: every send, fate, replay memory,
    state scramble and counter is {!Bsm_runtime.Round}'s, the round core
    the engine runs on. Each domain routes its own party's frames
    through its own router and ships the delivered envelopes down the
    channel rings; rounds advance through a two-phase lockstep barrier
    (phase one ends the round's sends, phase two ends its deliveries),
    and inboxes are drained in sender order. Consequently a run's
    [parties] and [metrics] over [Live] equal [Engine.run]'s for the same
    configuration, faults included ({!check} compares them), which is
    the property that lets protocol code debugged in replay be trusted
    live.

    Differences from the engine, by design: parties run concurrently
    (2k domains — keep k small) and there is no trace. A party whose
    program raises is [Crashed]; its domain keeps participating in
    barriers as a ghost (draining its rings) so the others run on,
    matching the engine's containment. *)

module Engine := Bsm_runtime.Engine

(** [run ?max_rounds ?faults ~k ~link ~programs ()] — execute one
    synchronous protocol live. [parties] come back in roster order
    (L0..Lk-1, R0..Rk-1) and [metrics] are the per-domain tallies
    summed, the final round's frames included, exactly as
    {!Bsm_runtime.Engine.run} reports them; [trace] is empty. *)
val run :
  ?max_rounds:int ->
  ?faults:Engine.fault_model ->
  k:int ->
  link:Engine.link ->
  programs:(Bsm_prelude.Party_id.t -> Engine.program) ->
  unit ->
  Engine.result

(** [check ?max_rounds ?faults ~k ~link ~programs ()] runs the
    configuration through both {!Bsm_runtime.Engine.run} and {!run} and
    compares the whole results, parties and metrics. [Ok] carries the
    live result; [Error] names the first party whose result differs, or
    says the metrics do. *)
val check :
  ?max_rounds:int ->
  ?faults:Engine.fault_model ->
  k:int ->
  link:Engine.link ->
  programs:(Bsm_prelude.Party_id.t -> Engine.program) ->
  unit ->
  (Engine.result, string) result
