(** Logical query plans with a rule-based optimizer.

    The engines' hand-written pipelines compose {!Ops} directly; this
    module provides the declarative layer on top: build a logical plan,
    let the optimizer push predicates below joins, prune unused columns
    into the scans (which matters for the column store) and choose hash
    join build sides by estimated cardinality, then execute — or render an
    EXPLAIN tree. *)

type t =
  | Scan of string * string list
      (** table name; columns to read ([[]] = all, the optimizer prunes) *)
  | Filter of Expr.t * t
  | Project of string list * t
  | Join of { left : t; right : t; on : (string * string) list }
  | Interval_join of {
      left : t;
      right : t;
      left_span : string * string;  (** (start, length) columns *)
      right_span : string * string;
      min_overlap : int;
    }
      (** Genomic overlap join via {!Ops.interval_join}: output is
          [left ++ right ++ overlap_len], canonical (left, right) row
          order; sides are never swapped by the optimizer. *)

type catalog = {
  scan : string -> string list -> Ops.rel;
      (** Also owns the scan's tracing span: fuse one with
          [Ops.guard ~trace:("scan:" ^ table)] (or wrap with
          {!Ops.traced}) so executed plans show per-operator spans.
          Interior operators get theirs from {!execute} itself. *)
  schema_of : string -> Schema.t;
  row_count : string -> int;
}

val schema : catalog -> t -> Schema.t
(** Output schema of a plan. Raises on unknown tables/columns. *)

val estimate_rows : catalog -> t -> int
(** Heuristic cardinality estimate (used for build-side selection). *)

val optimize : catalog -> t -> t
(** Predicate pushdown, column pruning, join build-side selection. *)

val optimize_steps : catalog -> t -> t * string list
(** {!optimize} plus the names of the rewrites that actually changed the
    plan (in application order) — empty when the plan came back
    structurally identical. *)

val execute : ?optimize_first:bool -> catalog -> t -> Ops.rel
(** Execute ([optimize_first] defaults to [true]). *)

val explain : catalog -> t -> string
(** Indented plan tree with row estimates, after optimization, followed
    by a one-line note naming the optimizer rewrites that fired (or that
    the plan was unchanged). *)

val explain_analyze : catalog -> t -> string
(** EXPLAIN ANALYZE: run the optimized plan through {!execute}'s
    interpreter with a row counter on every node's output, drain it, and
    render the tree with
    [est vs actual] cardinalities per node. Join nodes also report hash
    build/probe input sizes (the right and left child's actual counts);
    interval-join nodes report the swept input sizes, their own
    [est | actual] line being the estimated-vs-actual overlap count.
    Runs the query to completion — a diagnostic, not a timed
    benchmark. *)
