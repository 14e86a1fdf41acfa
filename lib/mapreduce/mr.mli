(** A MapReduce runtime modelling Hadoop streaming.

    Records cross every job boundary as text lines (as in Hadoop
    streaming), so each job genuinely pays serialization, parsing and a
    full shuffle materialization. Per-job launch overhead — the fixed JVM/
    scheduling cost that dominates small Hadoop jobs — is charged to a
    simulated clock; map/shuffle/reduce compute is measured for real and
    charged to the same clock. *)

type t

val create : ?job_overhead_s:float -> ?nodes:int -> unit -> t
(** Default overhead 0.15 s per job (scaled to this reproduction's
    dataset scale-down, standing in for tens of seconds of real Hadoop
    job latency). With [nodes > 1], measured map/reduce compute is divided
    by [nodes * 0.75] (Hadoop never scales linearly) and the cross-node
    share of each job's shuffle is charged at 1 GB/s per node. Injected
    task failures are retried up to 4 attempts (Hadoop's
    [mapreduce.map.maxattempts]). *)

val elapsed : t -> float
(** Simulated seconds consumed so far (overhead + measured compute). *)

val jobs_run : t -> int

val run_job :
  t ->
  name:string ->
  ?combiner:(string -> string list -> string list) ->
  mapper:(string -> (string * string) list) ->
  reducer:(string -> string list -> string list) ->
  string list ->
  string list
(** One MapReduce job: map every input line to key/value pairs, shuffle
    (group and sort by key, materializing the intermediate data as text),
    reduce each group to output lines. An optional [combiner] runs on the
    map side before the shuffle, shrinking the materialized intermediate
    data (it must emit values the reducer accepts). *)

val map_only :
  t -> name:string -> mapper:(string -> string list) -> string list -> string list
(** A map-only job (still pays job overhead and text materialization). *)

val run_combine :
  t ->
  name:string ->
  init:'acc ->
  fold:('acc -> string -> 'acc) ->
  emit:('acc -> string list) ->
  string list ->
  string list
(** A map-only job with in-mapper combining (the pattern Mahout's
    [DistributedRowMatrix.times] uses for [A{^T}A]): fold over the input
    records accumulating state, then emit the combined output once. *)

val set_deadline : t -> float -> unit
(** Abort (raise [Gb_util.Deadline.Timeout]) when a job starts after the
    simulated clock passes this many seconds — the benchmark's cut-off
    for runaway computations. A [Gb_util.Deadline.Sim] deadline on the
    runtime's clock, as [Cluster.set_deadline] is: charged overheads and
    retries count against the window even when no wall time passes. *)

(** {1 Fault injection} *)

exception Job_failed of string
(** A job with 4 or more injected task failures (Hadoop's attempt limit)
    — the JobTracker gives up on the job. *)

val set_fault_plan : t -> Gb_fault.Fault.plan -> unit
(** Arm a deterministic fault plan; [Task_fail] events are consulted by
    job index. A failed task attempt re-runs the job's compute (plus the
    launch overhead) on the simulated clock — Hadoop-style task retry —
    and is reported through {!task_retries} / {!wasted_seconds}. *)

val task_retries : t -> int
val wasted_seconds : t -> float
(** Simulated seconds consumed by re-executed task attempts. *)
