(** Incremental maintainers: one materialized answer per query family,
    updated from ingest events instead of recomputed from scratch.

    Maintenance strategy per query:

    - {b Q1 regression} — a joint mergeable-moment sketch
      ({!Gb_linalg.Moments}) over (selected genes, drug response).
      Appends are buffered until the batch boundary; {!flush} then
      rank-1-updates the sketch with each appended patient's joint row
      (the [func < threshold] genes ascending, then the drug response),
      in arrival order. Cell updates remove and re-add the patient's
      joint row as they arrive. Refresh solves the centered normal
      equations — numerically equivalent (tolerance-profile) to the
      reference QR fit.
    - {b Q2 covariance} — a moment sketch over the disease cohort's full
      gene vector; appends add rows, cell updates downdate/update.
      Covariance is [M2/(n-1)] at any point.
    - {b Q3 biclustering, Q4 SVD} — full-recompute fallback: iterative
      kernels whose answers do not decompose over row deltas. The cached
      payload is served until the staleness bound (rows applied since
      the last recompute) is exceeded, then recomputed from the live
      snapshot with the shared reference kernels.
    - {b Q5 statistics} — the sample is [patient_id < k] with [k] from
      {!Genbase.Query.sample_size}, so when an append grows [k] the
      newly sampled live rows are added to per-gene sums. The sums are
      kept in exact row order (patients ascending, updates recompute
      the affected column's fold), reproducing [Mat.col_means]'s
      summation order bit-for-bit — the enrichment payload is
      {e bitwise} equal to a full recompute.
    - {b Q6 overlap} — delta interval sweep: each batch's new variants
      sweep against the (static) gene intervals via
      {!Gb_util.Ranges.sweep_join}; new pairs append in canonical order,
      so the maintained pair list is integer-exact.

    Event hooks must be called {e after} the event is applied to the
    {!Live} view, in event order; {!flush} runs once per batch boundary
    (it drains the buffered Q1 appends). *)

type config = {
  params : Genbase.Query.params;
  staleness_limit : int;
      (** Q3/Q4: max rows applied (appends + updates) before a
          non-forced {!refresh} recomputes *)
}

val default_config : config
(** Default query params, staleness bound of 256 rows. *)

type t

val create : ?config:config -> queries:Genbase.Query.t list -> Live.t -> t
(** Initialize maintainer state from the live view's current contents
    (fast-path sketch construction from the base matrices). *)

val copy : t -> t
(** Deep copy — checkpointing. *)

val on_append : t -> Live.t -> Gb_datagen.Generate.patient -> float array -> unit
val on_update :
  t -> Live.t -> patient_id:int -> gene_id:int -> old_row:float array ->
  unit
(** [old_row] is the patient's full expression row {e before} the update
    (the live view already holds the new value). *)

val on_variants : t -> Live.t -> Gb_datagen.Generate.variant list -> unit
(** New variants of one batch, ascending id order. *)

val flush : t -> unit
(** Batch boundary: folds each buffered append's joint row into the Q1
    regression sketch, in arrival order. Appends wait for the boundary
    because a cell update later in the same batch may touch an appended
    patient: the update's remove/add pair goes into the sketch first,
    and moving the append ahead of it would change the sketch's
    floating-point sums. *)

val refresh : ?force:bool -> t -> Live.t -> Genbase.Query.t -> Genbase.Engine.payload
(** Current answer. Incremental queries (Q1/Q2/Q5/Q6) always reflect
    every applied event; fallback queries (Q3/Q4) serve the cached
    payload unless [force] or the staleness bound was exceeded. *)

val staleness : t -> Genbase.Query.t -> int
(** Rows applied since the query's answer was last materialized — 0 for
    the incremental families. *)

val recomputes : t -> int
(** Fallback recomputations performed so far (both forced and
    staleness-triggered). *)
