(** The streaming executor: watermark, checkpoints, crash recovery.

    An executor owns a {!Live} view, a {!Maintain} state and an ingest
    log, and applies batches in order. The {b watermark} is the offset
    of the last fully applied batch (-1 before any); maintainer answers
    always reflect exactly the batches at or below it. Every
    [checkpoint_every] batches the executor snapshots live + maintainer
    state (a simulated durable checkpoint). An injected crash
    ({!Gb_fault.Fault.crash_at} on node 0 at superstep = batch offset)
    discards all in-memory state; recovery restores the latest
    checkpoint — or rebuilds from the base dataset when none exists —
    and replays the log from there. Replay is deterministic, so a
    crashed-and-recovered run converges to bit-identical state, which
    the conformance tests assert.

    Telemetry: the [stream_watermark] and [stream_ingest_lag] gauge
    families (plus batch/crash/replay counters) update on every applied
    batch and appear in the Prometheus exposition when telemetry is
    enabled. *)

type counters = {
  mutable batches_applied : int;  (** including re-applied (replayed) ones *)
  mutable rows_appended : int;
  mutable cells_updated : int;
  mutable variants_appended : int;
  mutable checkpoints : int;
  mutable crashes : int;
  mutable replayed_batches : int;
  mutable wasted_s : float;
      (** wall seconds of applied-then-discarded batch work *)
}

type t

val create :
  ?config:Maintain.config ->
  ?checkpoint_every:int ->
  queries:Genbase.Query.t list ->
  Genbase.Dataset.t ->
  Ingest.log ->
  t
(** [checkpoint_every] defaults to 4 batches. *)

val watermark : t -> int
val lag : t -> int
(** Batches in the log not yet applied. *)

val counters : t -> counters
val live : t -> Live.t

val step : ?fault:Gb_fault.Fault.plan -> t -> unit
(** Apply the next batch (consulting the fault plan first — a planned
    crash at that offset fires once, triggering recovery and replay
    before the batch is applied). Raises [Invalid_argument] when the log
    is exhausted. *)

val run : ?fault:Gb_fault.Fault.plan -> t -> unit
(** Apply every remaining batch. *)

val refresh : ?force:bool -> t -> Genbase.Query.t -> Genbase.Engine.payload
(** The maintained answer as of the watermark (see {!Maintain.refresh}
    for the staleness semantics of the Q3/Q4 fallback). *)

val staleness : t -> Genbase.Query.t -> int
val snapshot : t -> Genbase.Dataset.t
(** One-shot materialization of the current live state. *)

val recovery : t -> Genbase.Engine.recovery
(** Crash/replay work absorbed so far, as degraded-completion metadata:
    retries = replayed batches, recovered_nodes = crashes. *)

val engine :
  ?fault:Gb_fault.Fault.plan ->
  ?profile:Ingest.profile ->
  ?staleness_limit:int ->
  ?checkpoint_every:int ->
  unit ->
  Genbase.Engine.t
(** The subsystem as a harness pseudo-engine ("Streaming IVM"): each
    query of a session generates the dataset's ingest log, streams it
    through an executor (with optional fault injection), and answers the
    query from the maintained state — [dm] is the ingest+maintenance phase, [analytics]
    the final refresh (forced, so the fallback queries answer on the
    final data). Completes [Degraded] with the replay counts as recovery
    metadata when a crash was absorbed. *)

val chaos_cells :
  Genbase.Harness.chaos ->
  Genbase.Dataset.t ->
  timeout_s:float ->
  Genbase.Harness.cell list
(** The streaming row of the chaos grid: {!engine} armed with the chaos
    config's plan for ("Streaming IVM", 1 node) over 64 ingest batches,
    one harness cell per query. *)
