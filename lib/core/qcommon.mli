(** Shared reference implementations of the analytics phases and of the
    benchmark's selection predicates. Engines differ in *where the data
    lives and what the data management costs*; the mathematical definition
    of each query's answer is common, so cross-engine results must agree. *)

val genes_with_func_below : Dataset.t -> int -> int array
val patients_with_disease : Dataset.t -> int -> int array
val patients_by_age_gender : Dataset.t -> max_age:int -> gender:int -> int array
val sampled_patients : Dataset.t -> float -> int array
(** Deterministic sample: the first [min patients (max 2 (frac * patients))]
    patient ids ({!Query.sample_size}; a plain range predicate, so every
    engine selects identically). *)

val regression_of : Gb_linalg.Mat.t -> float array -> Engine.payload
val covariance_of :
  gene_ids:int array -> top_fraction:float -> Gb_linalg.Mat.t -> Engine.payload
val biclusters_of : ?seed:int64 -> Gb_linalg.Mat.t -> Engine.payload
val svd_of : k:int -> Gb_linalg.Mat.t -> Engine.payload

val enrichment_scores : Gb_linalg.Mat.t -> float array
(** Per-gene mean expression over the (already selected) sample rows. *)

val enrichment_of :
  n_genes:int ->
  go_pairs:(int * int) array ->
  go_terms:int ->
  p_threshold:float ->
  scores:float array ->
  Engine.payload
(** Rank [scores], Wilcoxon rank-sum per GO term, keep significant terms
    ascending by p-value. *)

val variant_ivs : Dataset.t -> Gb_util.Ranges.iv array
(** Variant intervals in id order ([iv.id] = [variant_id]). *)

val gene_ivs : Dataset.t -> Gb_util.Ranges.iv array
(** Gene intervals in id order ([iv.id] = [gene_id]). *)

val overlaps_of :
  n_variants:int -> n_genes:int -> (int * int * int) list -> Engine.payload
(** Sort pairs into the canonical ascending (variant_id, gene_id) order
    and wrap as {!Engine.Overlaps} — every Q6 physical plan finishes
    through this, so payload digests are bitwise comparable. *)

val overlap_sweep :
  ?min_overlap:int ->
  Gb_util.Ranges.iv array ->
  Gb_util.Ranges.iv array ->
  (int * int * int) list
(** Parallel sort-merge interval sweep over pool-size-independent chunks
    of the (id-ordered) left side, stitched in chunk order: output is
    already canonical and identical at any domain count. Profiled as the
    ["overlap_sweep"] kernel span; bumps ["q6_overlap_pairs"]. *)

val mr_recovery : Gb_mapreduce.Mr.t -> Engine.recovery
(** The MapReduce runtime's task retries as degraded-completion metadata
    ({!Engine.no_recovery} when the run was clean). *)
