module G = Gb_datagen.Generate
module Mat = Gb_linalg.Mat

let collect_ids pred arr id_of =
  Array.to_list arr
  |> List.filter pred
  |> List.map id_of
  |> Array.of_list

let genes_with_func_below (ds : Dataset.t) thr =
  collect_ids
    (fun (g : G.gene) -> g.func < thr)
    ds.genes
    (fun (g : G.gene) -> g.gene_id)

let patients_with_disease (ds : Dataset.t) id =
  collect_ids
    (fun (p : G.patient) -> p.disease_id = id)
    ds.patients
    (fun (p : G.patient) -> p.patient_id)

let patients_by_age_gender (ds : Dataset.t) ~max_age ~gender =
  collect_ids
    (fun (p : G.patient) -> p.age < max_age && p.gender = gender)
    ds.patients
    (fun (p : G.patient) -> p.patient_id)

let sampled_patients (ds : Dataset.t) frac =
  Array.init (Query.sample_size frac (Array.length ds.patients)) Fun.id

let regression_of x y =
  let m = Gb_linalg.Linreg.fit x y in
  Engine.Regression
    {
      intercept = m.Gb_linalg.Linreg.intercept;
      coefficients = m.Gb_linalg.Linreg.coefficients;
      r2 = m.Gb_linalg.Linreg.r_squared;
    }

let covariance_of ~gene_ids ~top_fraction m =
  let c = Gb_linalg.Covariance.matrix m in
  let pairs = Gb_linalg.Covariance.top_fraction c top_fraction in
  let mapped =
    List.map (fun (i, j, v) -> (gene_ids.(i), gene_ids.(j), v)) pairs
  in
  Engine.Cov_pairs { n_genes = Array.length gene_ids; top_pairs = mapped }

let biclusters_of ?seed m =
  let config =
    match seed with
    | None -> Gb_bicluster.Cheng_church.default_config
    | Some s -> { Gb_bicluster.Cheng_church.default_config with seed = s }
  in
  let found =
    Gb_obs.Profile.with_ ~cat:"kernel" ~name:"cheng_church"
      ~attrs:
        [
          ("rows", Gb_obs.Obs.Int m.Mat.rows);
          ("cols", Gb_obs.Obs.Int m.Mat.cols);
        ]
      (fun () -> Gb_bicluster.Cheng_church.run ~config m)
  in
  Engine.Biclusters
    {
      clusters =
        List.map
          (fun (b : Gb_bicluster.Cheng_church.bicluster) ->
            (b.rows, b.cols, b.msr))
          found;
    }

let svd_of ~k m =
  let rng = Gb_util.Prng.create 0x5EEDL in
  let res = Gb_linalg.Svd.top_k ~rng m k in
  Engine.Singular_values res.Gb_linalg.Svd.s

let enrichment_scores sample_matrix =
  Mat.col_means sample_matrix

let enrichment_of ~n_genes ~go_pairs ~go_terms ~p_threshold ~scores =
  if Array.length scores <> n_genes then
    invalid_arg "Qcommon.enrichment_of: scores length";
  Gb_obs.Profile.with_ ~cat:"kernel" ~name:"wilcoxon_enrichment"
    ~attrs:
      [
        ("genes", Gb_obs.Obs.Int n_genes);
        ("go_terms", Gb_obs.Obs.Int go_terms);
      ]
  @@ fun () ->
  let ranks = Gb_stats.Ranking.ranks scores in
  let members = Array.make go_terms [] in
  Array.iter
    (fun (gene, term) ->
      if term >= 0 && term < go_terms then members.(term) <- gene :: members.(term))
    go_pairs;
  let results = ref [] in
  for term = 0 to go_terms - 1 do
    let in_group = Array.make n_genes false in
    List.iter (fun g -> in_group.(g) <- true) members.(term);
    let n_in = List.length members.(term) in
    if n_in > 0 && n_in < n_genes then begin
      let r = Gb_stats.Wilcoxon.from_ranks ~ranks ~in_group in
      if r.Gb_stats.Wilcoxon.p_value < p_threshold then
        results := (term, r.Gb_stats.Wilcoxon.p_value) :: !results
    end
  done;
  let sorted =
    List.sort
      (fun (t1, p1) (t2, p2) ->
        let c = Float.compare p1 p2 in
        if c <> 0 then c else Int.compare t1 t2)
      !results
  in
  Engine.Enrichment sorted

(* --- Q6: genomic overlap join --- *)

module Ranges = Gb_util.Ranges

let variant_ivs (ds : Dataset.t) =
  Array.map
    (fun (v : G.variant) ->
      Ranges.of_start_len ~id:v.variant_id ~start:v.vstart ~len:v.vlen)
    ds.variants

let gene_ivs (ds : Dataset.t) =
  Array.map
    (fun (g : G.gene) ->
      Ranges.of_start_len ~id:g.gene_id ~start:g.position ~len:g.length)
    ds.genes

let overlaps_of ~n_variants ~n_genes pairs =
  let canonical =
    List.sort
      (fun (v1, g1, _) (v2, g2, _) ->
        let c = Int.compare v1 v2 in
        if c <> 0 then c else Int.compare g1 g2)
      pairs
  in
  Engine.Overlaps { n_variants; n_genes; pairs = canonical }

let overlap_pairs_out = Gb_obs.Telemetry.counter ~help:"pair" "q6_overlap_pairs"

(* The shared sweep kernel: partitioned over contiguous output ranges of
   the (id-ordered) variant side via pool-size-independent chunks, with
   per-chunk results stitched in chunk order — so the pair list is
   identical at any domain count, and already canonically sorted. *)
let overlap_sweep ?(min_overlap = 1) variants genes =
  let module Pool = Gb_par.Pool in
  Gb_obs.Profile.with_ ~cat:"kernel" ~name:"overlap_sweep"
    ~attrs:
      [
        ("variants", Gb_obs.Obs.Int (Array.length variants));
        ("genes", Gb_obs.Obs.Int (Array.length genes));
      ]
  @@ fun () ->
  let chunks = Pool.ranges ~grain:1024 ~lo:0 ~hi:(Array.length variants) in
  let outs =
    Pool.map_list
      (fun (a, b) ->
        Ranges.sweep_join ~min_overlap (Array.sub variants a (b - a)) genes)
      chunks
  in
  let pairs = List.concat outs in
  Gb_obs.Telemetry.add overlap_pairs_out (List.length pairs);
  pairs

let overlap_axis_end variants genes =
  let m = ref 0 in
  Array.iter (fun (iv : Ranges.iv) -> m := max !m iv.hi) variants;
  Array.iter (fun (iv : Ranges.iv) -> m := max !m iv.hi) genes;
  !m

(* Bin-aligned coordinate spans for the cluster engines: the axis's
   fixed-width bins are block-partitioned across nodes, giving each node
   one contiguous [lo, hi) slice of the genome. *)
let overlap_node_spans ~bin_width ~nodes ~axis_end =
  let nbins = max nodes (1 + Ranges.bin_of ~bin_width (max 0 (axis_end - 1))) in
  Gb_cluster.Partition.block_rows ~rows:nbins ~nodes
  |> Array.map (fun (start, len) ->
         (start * bin_width, (start + len) * bin_width))

(* One node's share of the overlap join: sweep the intervals touching
   its span, then keep only the pairs the span owns — the pair's
   max(starts) falls inside it — so replicated boundary intervals are
   counted exactly once across the cluster.  Interval ids must index the
   full arrays (true for {!variant_ivs}/{!gene_ivs}). *)
let overlap_pairs_in_span ?(min_overlap = 1) ~span:(lo, hi) variants genes =
  let touching ivs =
    Array.to_list ivs
    |> List.filter (fun (iv : Ranges.iv) -> iv.lo < hi && iv.hi > lo)
    |> Array.of_list
  in
  Ranges.sweep_join ~min_overlap (touching variants) (touching genes)
  |> List.filter (fun (v, g, _) ->
         let s = max variants.(v).Ranges.lo genes.(g).Ranges.lo in
         s >= lo && s < hi)

(* --- recovery accounting shared by the fault-tolerant engines --- *)

let cluster_recovery cluster =
  let s = Gb_cluster.Cluster.stats cluster in
  {
    Engine.retries =
      s.Gb_cluster.Cluster.oom_retries + s.Gb_cluster.Cluster.messages_dropped;
    recovered_nodes = s.Gb_cluster.Cluster.crashes_recovered;
    speculative = s.Gb_cluster.Cluster.speculative_restarts;
    wasted_s = s.Gb_cluster.Cluster.wasted_seconds;
  }

let mr_recovery mr =
  {
    Engine.retries = Gb_mapreduce.Mr.task_retries mr;
    recovered_nodes = 0;
    speculative = 0;
    wasted_s = Gb_mapreduce.Mr.wasted_seconds mr;
  }

let arm_cluster cluster = function
  | None -> ()
  | Some plan ->
    Gb_cluster.Cluster.set_fault_plan cluster plan;
    (* Crash recovery is only interesting with something to restore from:
       checkpoint every 4 supersteps, 64 KiB of state per node. *)
    Gb_cluster.Cluster.set_checkpoint cluster ~every:4 ~bytes_per_node:65536
