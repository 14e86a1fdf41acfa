(** The system-under-test interface.

    An engine prepares a data set once (setup, untimed) and then answers
    queries, reporting the data-management and analytics phases separately
    (the split behind Figures 2 and 4). Real-compute engines report wall
    time; cluster/coprocessor/MapReduce engines report simulated seconds
    that combine genuinely measured compute with modelled communication. *)

type payload =
  | Regression of { intercept : float; coefficients : float array; r2 : float }
  | Cov_pairs of { n_genes : int; top_pairs : (int * int * float) list }
  | Biclusters of { clusters : (int array * int array * float) list }
  | Singular_values of float array
  | Enrichment of (int * float) list
      (** significantly enriched (go_id, p-value), ascending p *)
  | Overlaps of {
      n_variants : int;
      n_genes : int;
      pairs : (int * int * int) list;
          (** overlapping (variant_id, gene_id, overlap_len) in canonical
              ascending (variant_id, gene_id) order — integer-exact, so
              digests are bitwise comparable across engines *)
    }

val payload_kind : payload -> string
(** Constructor name, e.g. ["regression"] — diagnostics and CSV dumps. *)

type timing = { dm : float; analytics : float }

val total : timing -> float

type recovery = {
  retries : int;
      (** transient-failure re-executions: per-node memory retries,
          MapReduce task re-attempts, message retransmissions *)
  recovered_nodes : int;  (** node crashes absorbed by re-execution *)
  speculative : int;  (** straggler tasks rescued by a backup copy *)
  wasted_s : float;
      (** simulated seconds of redone work, abandoned attempts and
          backoff waits — the price of finishing *)
}

val no_recovery : recovery

type outcome =
  | Completed of timing * payload
  | Degraded of timing * recovery * payload
      (** the query finished and its answer is valid, but only after the
          fault-tolerance machinery absorbed injected failures; [recovery]
          quantifies the overhead *)
  | Timed_out
  | Out_of_memory
  | Errored of string
      (** the engine hit an execution error (e.g. a degenerate selection
          made a kernel's preconditions fail); treated like a failure, not
          a crash *)
  | Unsupported

val completed : timing -> ?recovery:recovery -> payload -> outcome
(** [Completed] when [recovery] is absent or {!no_recovery}, [Degraded]
    otherwise — engines finish every query through this so fault-free
    runs are bit-identical with and without the fault machinery. *)

val timing_of : outcome -> timing option
(** The phase timings of a (possibly degraded) completion. *)

val payload_of : outcome -> payload option
val recovery_of : outcome -> recovery option

type session = Query.t -> params:Query.params -> timeout_s:float -> outcome
(** An engine prepared on one data set: it answers any number of
    queries from what [prepare] built. A session may hold immutable
    derived stores (row pages, compressed columns, chunked arrays, data
    frames, text tables) and nothing else: every query starts its own
    deadline, simulated clock and cooperative-timeout hook, so answering
    a query never changes the answer to the next one. *)

type t = {
  name : string;
  kind : [ `Single_node | `Multi_node of int ];
  supports : Query.t -> bool;
  prepare : Dataset.t -> session;
      (** Engines with a native store build it when [prepare] is applied
          to the data set — loading is setup, outside the [dm] and
          [analytics] clocks. *)
}

val run : t -> Dataset.t -> Query.t -> ?params:Query.params ->
  timeout_s:float -> unit -> outcome
(** Prepares a session and answers one query from it, translating
    [Deadline.Timeout], [Mr.Timeout] and memory-budget failures
    (including injected ones that exhaust their retry budget) into the
    corresponding outcomes. Any other exception becomes [Errored] — a
    misbehaving engine can fail its own cell but never abort the grid.

    [run] also arms a wall-clock {!Gb_util.Deadline.Ambient} deadline of
    [timeout_s] for the duration of [prepare] and the query: kernels
    poll it from their iteration loops, so a query can be cancelled
    mid-phase rather than only at the engines' phase-boundary checks. *)

val memo : t -> t
(** The same engine with a one-entry memo on [prepare]: preparing the
    physically same data set ([==]) as the previous call returns the
    previous session; any other data set prepares a fresh session
    (under a ["phase"]-category ["load"] span) and replaces the old
    one. A [prepare] that raises leaves the memo as it was. The memo is
    unsynchronized — one domain at a time — and keeps its last data set
    and session alive until it is replaced or dropped. *)

val pp_outcome : Format.formatter -> outcome -> unit

val phase :
  ?clock:(unit -> float) ->
  check:(unit -> unit) ->
  string ->
  (unit -> 'a) ->
  'a * float
(** [phase ?clock ~check name f] runs one phase of a query under a
    ["phase"]-category span named [name], calls [check] (the query's
    cooperative timeout hook) when [f] returns, and gives [f]'s result
    with the phase's seconds. Without [clock] the phase is wall-timed
    and its span is a wall span; with [clock] (a simulated clock's
    reading, advanced by [f] itself) its seconds are the clock's advance
    and its span lands on the simulated track. Either way the span
    carries the phase's GC delta when profiling is on. *)

exception Memory_exceeded
(** Raised by engines whose modelled memory budget is exhausted (the
    paper's "temporary space allocation failed" result). *)
