(** Simulated multi-node execution.

    Work runs as BSP-style supersteps: the per-node closures are executed
    for real (sequentially, on this machine) and individually timed; the
    simulated clock advances by the *maximum* per-node time, so load
    imbalance shows up exactly as it would on a real cluster. Communication
    primitives charge modelled wire time and account bytes.

    A {!Gb_fault.Fault.plan} can be injected ({!set_fault_plan}); the
    cluster then survives the planned faults instead of crashing:

    - a {e node crash} marks the node dead; its lost work since the last
      checkpoint is re-executed on a surviving node (charged serially) and
      its checkpointed state is fetched over the interconnect; from then on
      its tasks run on the least-loaded survivor each superstep;
    - a {e straggler} slowdown is capped by speculative re-execution — when
      shipping the task's input to a healthy node and re-running it beats
      waiting, the backup's finish time counts and the straggling attempt
      becomes wasted work;
    - a {e transient memory failure} retries the node's task under the
      {!Gb_fault.Retry.default} policy, with exponential backoff charged
      to the simulated clock; past the budget it escalates to
      {!Gb_fault.Fault.Injected_oom};
    - a {e dropped message} is retransmitted after an ack timeout; a
      {e delayed message} stalls the operation.

    All recovery work, backoff and retransmission is charged to the
    simulated clock, so the deadline set by {!set_deadline} bounds the
    degraded run too, and {!stats} reports the overhead. *)

type t

val create : ?net:Netmodel.t -> nodes:int -> unit -> t
val nodes : t -> int

val elapsed : t -> float
(** Simulated seconds so far. *)

val comm_bytes : t -> int
(** Total bytes charged to the interconnect. *)

val comm_seconds : t -> float

val superstep : t -> (int -> 'a) -> 'a array
(** [superstep c f] runs [f node] for each node; returns per-node results;
    advances the clock by the slowest node. Injected faults are applied
    here (crash recovery before the step, slowdowns/retries per task); a
    deadline passed mid-superstep raises [Gb_util.Deadline.Timeout] when
    the step completes. *)

val set_compute_speedup : t -> float -> unit
(** A multiplier applied to every subsequent superstep's measured time —
    used to model per-node coprocessors without threading a factor through
    the parallel kernels. Reset it to 1.0 after the accelerated phase. *)

val allreduce_sum : t -> float array array -> float array
(** Element-wise sum of per-node vectors, charged as a ring allreduce. *)

val allreduce_mat : t -> Gb_linalg.Mat.t array -> Gb_linalg.Mat.t

val broadcast : t -> bytes:int -> unit
val gather : t -> bytes_per_node:int -> unit
val shuffle : t -> total_bytes:int -> unit
val advance : t -> float -> unit
(** Charge explicit extra simulated time (e.g. a modelled disk spill). *)

val set_deadline : t -> float -> unit
(** Raise [Gb_util.Deadline.Timeout] when simulated time passes this
    (absolute, in simulated seconds — implemented as a
    [Gb_util.Deadline.Sim] deadline on the cluster's clock, unlike the
    wall-clock deadlines single-node engines use). *)

(** {1 Fault tolerance} *)

val set_fault_plan : t -> Gb_fault.Fault.plan -> unit
(** Arm a deterministic fault plan. Replaces any previous plan and
    reseeds the backoff-jitter generator from the plan's seed, so the
    same plan replays identically. *)

val set_checkpoint : t -> every:int -> bytes_per_node:int -> unit
(** Checkpoint every [every] supersteps ([0] disables): live nodes write
    [bytes_per_node] of state in parallel (one modelled transfer per
    checkpoint), and a crash only loses — and re-executes — work since
    the last checkpoint instead of the whole run. [bytes_per_node] also
    sizes crash-recovery fetches and speculative input shipping. *)

val set_task_cost : t -> float option -> unit
(** [Some c] switches the superstep timer to a virtual cost of [c]
    simulated seconds per task instead of measuring wall time — closures
    still execute for real (results are genuine) but the clock becomes
    fully deterministic, which the fault-replay tests rely on. [None]
    restores measured timing. *)

type recovery_stats = {
  crashes_recovered : int;
  oom_retries : int;
  speculative_restarts : int;
  messages_dropped : int;
  messages_delayed : int;
  wasted_seconds : float;
      (** simulated seconds of redone work, abandoned attempts, backoff
          waits and retransmissions *)
  checkpoint_seconds : float;  (** overhead of checkpoint writes *)
}

val no_recovery : recovery_stats

val stats : t -> recovery_stats
val degraded : t -> bool
(** Whether any fault was absorbed (i.e. [stats t <> no_recovery]). *)

val live_nodes : t -> int
(** Nodes that have not crashed. *)
