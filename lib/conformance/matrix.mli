(** Conformance grids: engines x queries x seeds, each cell classified
    against the oracle and rendered as a matrix / CSV for CI.

    Two grids are provided. {!differential} checks every single-node
    engine against the Vanilla R reference on freshly generated data sets
    (one per seed; non-base seeds also fuzz the query parameters through
    {!Genqc}). {!chaos_conformance} re-runs the multi-node engines under
    the harness's deterministic fault plans and checks each (possibly
    degraded) answer against the same engine's fault-free run, and that
    fault-free run against Vanilla R — turning the chaos grid from an
    availability report into a correctness check. *)

type cell = {
  engine : string;
  nodes : int;
  query : Genbase.Query.t;
  seed : int64;
  fuzzed : bool;  (** parameters drawn from {!Genqc.params_of_seed} *)
  payload : string;
      (** {!Genbase.Engine.payload_kind} of the tested outcome, [""] when
          the engine produced no payload *)
  classification : Oracle.classification;
}

type config = {
  spec : Gb_datagen.Spec.t;
  seeds : int64 list;
  timeout_s : float;
  fuzz : bool;
      (** fuzz query parameters on every seed after the first; the first
          seed always runs the paper's default parameters *)
  progress : (string -> unit) option;
}

val default_config : config
val quick_config : config
(** Small spec, 3 seeds, short timeout — what [genbase conformance
    --quick] and CI run. *)

val seeds_from : base:int64 -> int -> int64 list
(** [base] followed by [n-1] SplitMix-derived seeds. *)

val differential : config -> cell list
(** Every single-node engine except the reference, plus the Xeon Phi
    configuration. An [Unsupported] outcome outside
    {!Oracle.whitelisted_unsupported} is converted to a mismatch. *)

val chaos_conformance : node_counts:int list -> config -> cell list
(** For each node count, runs every multi-node engine clean and under
    its {!Genbase.Harness.chaos_plan} ({!Genbase.Harness.default_chaos}).
    The clean run is classified against Vanilla R; when it diverges the
    cell is a mismatch, otherwise the faulty run is classified against
    the clean one. Degraded-but-equal cells classify as
    {!Oracle.Degraded_match}. *)

val render : cell list -> string
(** One table per (seed, node count): engines x queries with per-cell
    classification and max divergence. *)

val summary : cell list -> string
(** Totals per classification plus one line per mismatch. *)

val to_csv : cell list -> string
(** [engine,nodes,query,seed,fuzzed,payload,status,divergence,detail] —
    the CI artifact. A degraded match's detail is its retries and
    recovered nodes, which the fault plan fixes, so two runs write the
    same CSV unless a status changes. *)

val mismatches : cell list -> cell list
val conforming : cell list -> bool
(** No mismatch cells (whitelisted [Unsupported] and failed-but-isolated
    cells do not count against conformance). *)
