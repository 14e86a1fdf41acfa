module Mat = Gb_linalg.Mat
module G = Gb_datagen.Generate
module Cluster = Gb_cluster.Cluster
module Partition = Gb_cluster.Partition
module Par = Gb_cluster.Par_linalg

type node_data = {
  block_start : int;
  expr : Mat.t; (* local block of patient rows *)
  patients : G.patient array; (* local patients *)
}

let partition (ds : Dataset.t) nodes =
  let p, _ = Mat.dims ds.expression in
  Partition.block_rows ~rows:p ~nodes
  |> Array.map (fun (start, len) ->
         {
           block_start = start;
           expr =
             Mat.init len (snd (Mat.dims ds.expression)) (fun i j ->
                 Mat.unsafe_get ds.expression (start + i) j);
           patients = Array.sub ds.patients start len;
         })

let mat_bytes m =
  let r, c = Mat.dims m in
  8 * r * c

let run ?fault ~nodes ds query ~(params : Query.params) ~timeout_s =
  let dl = Gb_util.Deadline.start ~seconds:(2. *. timeout_s) in
  let cluster = Cluster.create ~nodes () in
  Cluster.set_deadline cluster timeout_s;
  Qcommon.arm_cluster cluster fault;
  let data = partition ds nodes in
  let phase name f =
    let t0 = Cluster.elapsed cluster in
    let gc = Gb_obs.Profile.start () in
    let r = f () in
    Gb_util.Deadline.check dl;
    let t1 = Cluster.elapsed cluster in
    Gb_obs.Obs.Span.emit ~cat:"phase"
      ~attrs:(Gb_obs.Profile.delta_attrs gc)
      ~name ~t0 ~t1 ();
    (r, t1 -. t0)
  in
  let n_genes = Array.length ds.G.genes in
  let go_terms = ds.G.spec.Gb_datagen.Spec.go_terms in
  match query with
  | Query.Q1_regression ->
    let (parts, ys, _gene_ids), dm =
      phase "dm" (fun () ->
          let gene_ids =
            Qcommon.genes_with_func_below ds params.func_threshold
          in
          let parts =
            Cluster.superstep cluster (fun node ->
                Mat.sub_cols data.(node).expr gene_ids)
          in
          let ys =
            Cluster.superstep cluster (fun node ->
                Array.map
                  (fun (p : G.patient) -> p.drug_response)
                  data.(node).patients)
          in
          (parts, ys, gene_ids))
    in
    let payload, analytics =
      phase "analytics" (fun () ->
          let beta = Par.regression cluster parts ys in
          let r2 = Par.r_squared cluster parts ys ~beta in
          Engine.Regression
            {
              intercept = beta.(0);
              coefficients = Array.sub beta 1 (Array.length beta - 1);
              r2;
            })
    in
    Engine.completed { dm; analytics }
      ~recovery:(Qcommon.cluster_recovery cluster) payload
  | Query.Q2_covariance ->
    let parts, dm0 =
      phase "dm" (fun () ->
          Cluster.superstep cluster (fun node ->
              let d = data.(node) in
              let ids =
                Array.to_list d.patients
                |> List.filteri (fun _ (p : G.patient) ->
                       p.disease_id = params.disease_id)
                |> List.map (fun (p : G.patient) -> p.patient_id - d.block_start)
                |> Array.of_list
              in
              Mat.sub_rows d.expr ids))
    in
    let payload, analytics =
      phase "analytics" (fun () ->
          let c = Par.covariance cluster parts in
          (* The full covariance matrix lands on the head node, which
             thresholds the pairs. *)
          let pairs = ref [] in
          let _ =
            Cluster.superstep cluster (fun node ->
                if node = 0 then
                  pairs :=
                    Gb_linalg.Covariance.top_fraction c params.cov_top_fraction)
          in
          Engine.Cov_pairs { n_genes; top_pairs = !pairs })
    in
    (* Step 4 join against the (replicated) gene metadata on the head. *)
    let _meta, dm1 =
      phase "dm:metadata" (fun () ->
          Cluster.superstep cluster (fun node ->
              if node = 0 then
                match payload with
                | Engine.Cov_pairs p ->
                  List.iter
                    (fun (g1, _, _) -> ignore ds.G.genes.(g1).G.func)
                    p.top_pairs
                | _ -> ()))
    in
    Engine.completed { dm = dm0 +. dm1; analytics }
      ~recovery:(Qcommon.cluster_recovery cluster) payload
  | Query.Q3_biclustering ->
    let head_matrix, dm =
      phase "dm" (fun () ->
          let parts =
            Cluster.superstep cluster (fun node ->
                let d = data.(node) in
                let ids =
                  Array.to_list d.patients
                  |> List.filter (fun (p : G.patient) ->
                         p.age < params.max_age && p.gender = params.gender)
                  |> List.map (fun (p : G.patient) ->
                         p.patient_id - d.block_start)
                  |> Array.of_list
                in
                Mat.sub_rows d.expr ids)
          in
          let total_bytes =
            Array.fold_left (fun acc p -> acc + mat_bytes p) 0 parts
          in
          Cluster.gather cluster ~bytes_per_node:(total_bytes / nodes);
          Partition.concat_rows parts)
    in
    let payload, analytics =
      phase "analytics" (fun () ->
          let out = ref (Engine.Biclusters { clusters = [] }) in
          let _ =
            Cluster.superstep cluster (fun node ->
                if node = 0 then out := Qcommon.biclusters_of head_matrix)
          in
          !out)
    in
    Engine.completed { dm; analytics }
      ~recovery:(Qcommon.cluster_recovery cluster) payload
  | Query.Q4_svd ->
    let parts, dm =
      phase "dm" (fun () ->
          let gene_ids =
            Qcommon.genes_with_func_below ds params.func_threshold
          in
          Cluster.superstep cluster (fun node ->
              Mat.sub_cols data.(node).expr gene_ids))
    in
    let payload, analytics =
      phase "analytics" (fun () ->
          let eigs = Par.lanczos_eigs cluster ~k:params.svd_k parts in
          Engine.Singular_values
            (Array.map (fun e -> sqrt (Float.max 0. e)) eigs))
    in
    Engine.completed { dm; analytics }
      ~recovery:(Qcommon.cluster_recovery cluster) payload
  | Query.Q5_statistics ->
    let scores, dm =
      phase "dm" (fun () ->
          let sample = Qcommon.sampled_patients ds params.sample_fraction in
          let k = Array.length sample in
          let partials =
            Cluster.superstep cluster (fun node ->
                let d = data.(node) in
                let sums = Array.make (n_genes + 1) 0. in
                Array.iteri
                  (fun local (p : G.patient) ->
                    if p.patient_id < k then begin
                      for j = 0 to n_genes - 1 do
                        sums.(j) <- sums.(j) +. Mat.unsafe_get d.expr local j
                      done;
                      sums.(n_genes) <- sums.(n_genes) +. 1.
                    end)
                  d.patients;
                sums)
          in
          let t = Cluster.allreduce_sum cluster partials in
          let count = Float.max 1. t.(n_genes) in
          Array.init n_genes (fun j -> t.(j) /. count))
    in
    let payload, analytics =
      phase "analytics" (fun () ->
          let out = ref (Engine.Enrichment []) in
          let _ =
            Cluster.superstep cluster (fun node ->
                if node = 0 then
                  out :=
                    Qcommon.enrichment_of ~n_genes ~go_pairs:ds.G.go ~go_terms
                      ~p_threshold:params.p_threshold ~scores)
          in
          !out)
    in
    Engine.completed { dm; analytics }
      ~recovery:(Qcommon.cluster_recovery cluster) payload
  | Query.Q6_overlap ->
    (* Shuffle-by-genomic-bin: every node receives the variant and gene
       intervals touching its bin-aligned genome slice (one shuffle of
       the two small interval tables), sweeps locally, and the head
       gathers the per-node pair lists. *)
    let (vivs, givs, spans), dm =
      phase "dm" (fun () ->
          let vivs = Qcommon.variant_ivs ds and givs = Qcommon.gene_ivs ds in
          let spans =
            Qcommon.overlap_node_spans
              ~bin_width:Gb_util.Ranges.default_bin_width ~nodes
              ~axis_end:(Qcommon.overlap_axis_end vivs givs)
          in
          Cluster.shuffle cluster
            ~total_bytes:(24 * (Array.length vivs + Array.length givs));
          (vivs, givs, spans))
    in
    let payload, analytics =
      phase "analytics" (fun () ->
          let per_node =
            Cluster.superstep cluster (fun node ->
                Qcommon.overlap_pairs_in_span
                  ~min_overlap:params.min_overlap_bp ~span:spans.(node) vivs
                  givs)
          in
          let total =
            Array.fold_left (fun acc l -> acc + List.length l) 0 per_node
          in
          Cluster.gather cluster ~bytes_per_node:(24 * total / nodes);
          Qcommon.overlaps_of ~n_variants:(Array.length vivs)
            ~n_genes:(Array.length givs)
            (List.concat (Array.to_list per_node)))
    in
    Engine.completed { dm; analytics }
      ~recovery:(Qcommon.cluster_recovery cluster) payload

let make ~fault ~nodes =
  {
    Engine.name = "pbdR";
    kind = `Multi_node nodes;
    supports = (fun _ -> true);
    prepare = (fun ds q ~params ~timeout_s -> run ?fault ~nodes ds q ~params ~timeout_s);
  }

let engine ~nodes = make ~fault:None ~nodes
let faulty ~fault ~nodes = make ~fault:(Some fault) ~nodes
