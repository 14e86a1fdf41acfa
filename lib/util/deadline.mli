(** Cooperative timeouts — the benchmark's "cut off all computation after
    two hours" rule, scaled down. Long-running phases call [check]
    periodically; the harness treats {!Timeout} (like memory-allocation
    failure) as an "infinite" result.

    Two clock domains share one interface ({!S}) and one exception:

    - the flat functions below run against the *wall clock* and bound the
      real execution time of single-node engines;
    - {!Sim} runs against a {!Gb_util.Clock.Sim} simulated clock and
      bounds *simulated* seconds — the cluster/MapReduce cut-off, where
      modelled communication or recovery time must count against the
      window even though no wall time passes ([Cluster.set_deadline] and
      [Mr.set_deadline] are built on it).

    Both raise the same {!Timeout}, so the harness maps either domain to
    the same [Timed_out] outcome. *)

exception Timeout

(** What every deadline flavour supports. *)
module type S = sig
  type t

  val expired : t -> bool

  val check : t -> unit
  (** Raises {!Timeout} once the deadline has passed. *)

  val remaining : t -> float
end

type t

val start : seconds:float -> t
(** Wall-clock deadline [seconds] from now. *)

val unlimited : unit -> t
val check : t -> unit
(** Raises {!Timeout} once the deadline has passed. *)

val expired : t -> bool
val remaining : t -> float

(** Deadlines on a simulated clock: expiry is judged against
    [Clock.Sim.now], so charging modelled time (communication, backoff,
    recovery re-execution) can fire the deadline with no wall time
    elapsing. *)
module Sim : sig
  include S

  val at : clock:Clock.Sim.t -> time:float -> t
  (** Absolute: expires once the clock passes [time] simulated seconds. *)

  val start : clock:Clock.Sim.t -> seconds:float -> t
  (** Relative to the clock's current reading. *)

  val unlimited : clock:Clock.Sim.t -> t
end

(** Cooperative cancellation without plumbing: a wall-clock deadline
    armed for the current domain that long-running kernels can poll from
    their iteration loops. Engines historically checked their deadline
    only at phase boundaries, so a single oversized factorization could
    overrun its budget by minutes; kernels now call {!checkpoint} once
    per outer iteration and abort mid-phase.

    The armed deadline is domain-local: a query cancelled on one Domain
    pool lane never aborts its neighbours. With nothing armed a
    checkpoint is one domain-local read and a branch. *)
module Ambient : sig
  val with_deadline : t -> (unit -> 'a) -> 'a
  (** Arm [dl] for the current domain while [f] runs; restores the
      previously armed deadline (if any) on any exit. *)

  val checkpoint : unit -> unit
  (** Raises {!Timeout} iff a deadline is armed on this domain and has
      passed. Cheap enough for per-iteration use in kernel loops. *)

  val armed : unit -> bool
end
