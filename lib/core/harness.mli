(** Benchmark harness: runs (engine x query x data set) grids, applies the
    cut-off rule ("we cut off all computation after two hours … we treat
    memory allocation failure and excessive computation length as
    'infinite' results"), and renders each of the paper's figures and
    tables as a text chart. *)

type cell = {
  engine : string;
  nodes : int;
  query : Query.t;
  size : Gb_datagen.Spec.size;
  outcome : Engine.outcome;
  breakdown : (string * float) list;
      (** top span names by total duration for this cell — empty unless
          tracing was enabled ({!Gb_obs.Obs.set_enabled}) during the run *)
  counters : (string * float) list;
      (** counter deltas attributable to this cell — empty unless tracing
          was enabled *)
}

val run_cell : Engine.t -> Dataset.t -> Query.t -> timeout_s:float -> cell
(** Run one (engine, query, data set) cell, keeping the best of up to 5
    runs when the cell completes in under a second. When tracing is
    enabled the cell runs once, wrapped in a
    ["cell:<engine>/<query>/<size>"] root span whose duration equals the
    engine-reported total (matching {!total_seconds}), telemetry is
    switched on for the run ({!Gb_obs.Telemetry.set_enabled}, restored
    afterwards), and the cell carries its span breakdown and counter
    deltas. *)

type overhead = {
  rounds : (float * float) list;
      (** per round, the best engine total with tracing off and on *)
  median_pct : float;  (** median over rounds of the on/off slowdown, % *)
}

val overhead_pct : float * float -> float
(** A round's slowdown in percent: [100 * (on / off - 1)]. *)

val tracing_overhead :
  Engine.t -> Dataset.t -> Query.t -> timeout_s:float -> overhead
(** The cost of enabled tracing and telemetry on one cell: 5 rounds, each
    the best of 6 runs with both flags off interleaved with 6 runs with
    both on. Leaves both flags off. Raises [Failure] when a run does not
    complete. Behind [genbase run --overhead-check] and the [obs] bench
    section. *)

val total_seconds : cell -> float option
(** [Some total] for a (possibly degraded) completion; [Some infinity]
    for timeout, memory failure, or an [Errored] cell — all three are the
    paper's "infinite" results, and an execution error is charged like a
    crash, not excused; [None] only when the engine lacks the
    functionality ([Unsupported]). The conformance matrix
    ({!Gb_conformance.Matrix}) mirrors this split: [Errored] cells
    classify as [Engine_failed] (nothing verified), never as conforming. *)

val dm_seconds : cell -> float option
val analytics_seconds : cell -> float option

type config = {
  timeout_s : float; (** the scaled two-hour window *)
  sizes : Gb_datagen.Spec.size list;
  seed : int64;
  progress : (string -> unit) option; (** per-cell progress callback *)
}

val default_config : config

val quick_config : config
(** Small size only and a short timeout, for tests and demos. *)

val memory_budget : unit -> Gb_par.Budget.t
(** The process-wide byte budget throttling concurrent cells, sized from
    [GENBASE_MEMORY_BUDGET_MB] (default 4 GiB). Shared with the serving
    layer so interactive queries and batch grids are admitted against
    the same capacity. *)

val cell_bytes : Dataset.t -> int
(** Peak-working-set estimate charged against {!memory_budget} for one
    cell over this data set. *)

val single_node_engines : Engine.t list
val multi_node_engines : nodes:int -> Engine.t list

(** {1 Experiment grids} — each runs its engines and returns raw cells.

    When the Domain pool ({!Gb_par.Pool}) has more than one lane and
    tracing is disabled, grid cells run concurrently on the pool under a
    global memory budget (GENBASE_MEMORY_BUDGET_MB, default 4096);
    results keep grid order. Tracing forces the sequential path so span
    attribution and counter deltas keep single-cell semantics. *)

val single_node_cells : config -> cell list
(** Everything Figures 1 and 2 need: 7 engines x 5 queries x sizes. *)

val multi_node_cells : config -> cell list
(** Figures 3/4: 5 multi-node systems x 5 queries x {1,2,4} nodes on the
    largest configured size. *)

val phi_cells : config -> cell list
(** Figure 5: SciDB vs SciDB+Phi x 4 queries x sizes. *)

val phi_mn_cells : config -> cell list
(** Table 1: SciDB vs SciDB+Phi x 4 queries x {1,2,4} nodes, largest
    size. *)

(** {1 Chaos} — the same grids under deterministic fault injection. *)

type chaos = {
  fault_seed : int64;  (** every fault placement derives from this *)
  crash_p : float;  (** per (node, superstep) crash probability *)
  straggler_p : float;
  straggler_factor : float;
  oom_p : float;
  drop_p : float;  (** per communication-op message loss *)
  delay_p : float;
  delay_s : float;
  task_fail_p : float;  (** per MapReduce job transient task failure *)
}

val default_chaos : chaos

val chaos_plan : chaos -> engine:string -> nodes:int -> Gb_fault.Fault.plan
(** The fault plan a chaos grid arms for one (engine, node count) cell
    group: [fault_seed] perturbed by a hash of the pair, so placements
    differ across the grid but are a pure function of the config. *)

val chaos_engines : chaos -> nodes:int -> Engine.t list
(** {!multi_node_engines}, each armed with the {!chaos_plan} of its own
    name and [nodes]. *)

val chaos_cells : ?chaos:chaos -> config -> cell list
(** The {!multi_node_cells} grid under fault injection: 5 systems x 5
    queries x {1,2,4} nodes, largest configured size. Cells complete
    ([Completed] when no fault landed, [Degraded] when recovery absorbed
    some), or fail in isolation ([Timed_out] / [Out_of_memory] /
    [Errored]) — never by raising. *)

val availability : cell list -> string
(** Per-engine summary table of a (chaos) grid: completed / degraded /
    failed cell counts, availability percentage, and aggregate recovery
    work (retries, node recoveries, speculative re-executions, wasted
    simulated seconds). *)

val bench_records : cell list -> Gb_obs.Bench_json.record list
(** One structured bench record per measurable cell, keyed
    (["cell-n<nodes>"], engine, query, size) so two runs of the same
    grid diff cell-for-cell with [genbase bench-diff]. DM/analytics
    splits and the cell's observability counter deltas ride along as
    record counters. Failed (infinite) and [Unsupported] cells are
    dropped. *)

val availability_records : cell list -> Gb_obs.Bench_json.record list
(** Per-engine availability percentages of a (chaos) grid as
    higher-is-better records — the diffable form of {!availability}. *)

(** {1 Rendering} — turn cells into the paper's figures. *)

val fig1 : cell list -> string list
val fig2 : cell list -> string list
val fig3 : cell list -> string list
val fig4 : cell list -> string list
val fig5 : cell list -> string list
val table1 : cell list -> string

val to_csv : cell list -> string
(** Machine-readable dump of a cell grid: one line per cell with engine,
    nodes, query, size, status, the payload kind, the phase timings, the
    recovery counters (retries, recovered_nodes, speculative, wasted_s —
    zeros for clean completions, blank for cells with no timing), one
    column per Obs counter observed anywhere in the grid (sorted by name
    for a stable header order), and a [top_spans] breakdown column
    ([name=seconds] pairs separated by [;]). Counter and breakdown cells
    are blank when tracing was disabled. *)
