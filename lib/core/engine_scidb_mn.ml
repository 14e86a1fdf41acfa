module Mat = Gb_linalg.Mat
module G = Gb_datagen.Generate
module Cluster = Gb_cluster.Cluster
module Partition = Gb_cluster.Partition
module Par = Gb_cluster.Par_linalg
module Chunked = Gb_arraydb.Chunked
module Device = Gb_coproc.Device

type node_data = {
  block_start : int;
  expr : Chunked.t;
  patients : G.patient array;
}

let partition (ds : Dataset.t) nodes =
  let p, g = Mat.dims ds.expression in
  Partition.block_rows ~rows:p ~nodes
  |> Array.map (fun (start, len) ->
         {
           block_start = start;
           expr =
             Chunked.of_matrix
               (Mat.init len g (fun i j ->
                    Mat.unsafe_get ds.expression (start + i) j));
           patients = Array.sub ds.patients start len;
         })

let mat_bytes m =
  let r, c = Mat.dims m in
  8 * r * c

let run ?device ?fault ~nodes ds query ~(params : Query.params) ~timeout_s =
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
  (* Chunk realignment before analytics: going multi-node forces SciDB to
     redistribute the (whole) array so the selection's chunks align with
     the parallel kernels' layout. Chunks are rebuilt through storage, so
     the effective throughput is disk-bound, far below wire speed — this
     is the data movement the paper suspects makes SciDB slower on two
     nodes than on one. *)
  let redistribution_bps = 200e6 in
  let per_chunk_s = 0.0004 in
  let redistribute _parts =
    if nodes > 1 then begin
      let total_bytes =
        Array.fold_left
          (fun acc d -> acc + Chunked.byte_size d.expr)
          0 data
      in
      let chunks =
        Array.fold_left (fun acc d -> acc + Chunked.chunk_count d.expr) 0 data
      in
      Cluster.shuffle cluster ~total_bytes;
      Cluster.advance cluster
        ((float_of_int total_bytes /. redistribution_bps)
        +. (float_of_int chunks *. per_chunk_s))
    end
  in
  (* Analytics dispatch: plain cluster kernels, or per-node coprocessors
     (PCIe transfer charged per node; superstep compute scaled). *)
  let analytics_with cls ~bytes_per_node f =
    match device with
    | None -> f ()
    | Some dev ->
      Cluster.advance cluster (Device.transfer_time dev ~bytes:bytes_per_node);
      Cluster.set_compute_speedup cluster (dev.Device.speedup cls);
      Fun.protect
        ~finally:(fun () -> Cluster.set_compute_speedup cluster 1.)
        f
  in
  let n_genes = Array.length ds.G.genes in
  let go_terms = ds.G.spec.Gb_datagen.Spec.go_terms in
  let head_only f =
    let out = ref None in
    let _ =
      Cluster.superstep cluster (fun node ->
          if node = 0 then out := Some (f ()))
    in
    Option.get !out
  in
  match query with
  | Query.Q1_regression ->
    let (parts, ys), dm =
      phase "dm" (fun () ->
          let gene_ids =
            Qcommon.genes_with_func_below ds params.func_threshold
          in
          let parts =
            Cluster.superstep cluster (fun node ->
                Chunked.to_matrix (Chunked.select_cols data.(node).expr gene_ids))
          in
          let ys =
            Cluster.superstep cluster (fun node ->
                Array.map
                  (fun (p : G.patient) -> p.drug_response)
                  data.(node).patients)
          in
          redistribute parts;
          (parts, ys))
    in
    let bytes_per_node =
      Array.fold_left (fun acc p -> max acc (mat_bytes p)) 0 parts
    in
    let payload, analytics =
      phase "analytics" (fun () ->
          analytics_with Device.Blas3 ~bytes_per_node (fun () ->
              let beta = Par.regression cluster parts ys in
              let r2 = Par.r_squared cluster parts ys ~beta in
              Engine.Regression
                {
                  intercept = beta.(0);
                  coefficients = Array.sub beta 1 (Array.length beta - 1);
                  r2;
                }))
    in
    Engine.completed { dm; analytics }
      ~recovery:(Qcommon.cluster_recovery cluster) payload
  | Query.Q2_covariance ->
    let parts, dm0 =
      phase "dm" (fun () ->
          let parts =
            Cluster.superstep cluster (fun node ->
                let d = data.(node) in
                let local_ids =
                  Array.to_list d.patients
                  |> List.filter (fun (p : G.patient) ->
                         p.disease_id = params.disease_id)
                  |> List.map (fun (p : G.patient) ->
                         p.patient_id - d.block_start)
                  |> Array.of_list
                in
                Chunked.to_matrix (Chunked.select_rows d.expr local_ids))
          in
          redistribute parts;
          parts)
    in
    let bytes_per_node =
      Array.fold_left (fun acc p -> max acc (mat_bytes p)) 0 parts
    in
    let payload, analytics =
      phase "analytics" (fun () ->
          analytics_with Device.Blas3 ~bytes_per_node (fun () ->
              let c = Par.covariance cluster parts in
              let pairs =
                head_only (fun () ->
                    Gb_linalg.Covariance.top_fraction c params.cov_top_fraction)
              in
              Engine.Cov_pairs { n_genes; top_pairs = pairs }))
    in
    let _meta, dm1 =
      phase "dm:metadata" (fun () ->
          head_only (fun () ->
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
                let local_ids =
                  Array.to_list d.patients
                  |> List.filter (fun (p : G.patient) ->
                         p.age < params.max_age && p.gender = params.gender)
                  |> List.map (fun (p : G.patient) ->
                         p.patient_id - d.block_start)
                  |> Array.of_list
                in
                Chunked.to_matrix (Chunked.select_rows d.expr local_ids))
          in
          let total_bytes =
            Array.fold_left (fun acc p -> acc + mat_bytes p) 0 parts
          in
          Cluster.gather cluster ~bytes_per_node:(total_bytes / nodes);
          Partition.concat_rows parts)
    in
    let payload, analytics =
      phase "analytics" (fun () ->
          analytics_with Device.Light ~bytes_per_node:(mat_bytes head_matrix)
            (fun () -> head_only (fun () -> Qcommon.biclusters_of head_matrix)))
    in
    Engine.completed { dm; analytics }
      ~recovery:(Qcommon.cluster_recovery cluster) payload
  | Query.Q4_svd ->
    let parts, dm =
      phase "dm" (fun () ->
          let gene_ids =
            Qcommon.genes_with_func_below ds params.func_threshold
          in
          let parts =
            Cluster.superstep cluster (fun node ->
                Chunked.to_matrix (Chunked.select_cols data.(node).expr gene_ids))
          in
          redistribute parts;
          parts)
    in
    let bytes_per_node =
      Array.fold_left (fun acc p -> max acc (mat_bytes p)) 0 parts
    in
    let payload, analytics =
      phase "analytics" (fun () ->
          analytics_with Device.Blas2 ~bytes_per_node (fun () ->
              let eigs = Par.lanczos_eigs cluster ~k:params.svd_k parts in
              Engine.Singular_values
                (Array.map (fun e -> sqrt (Float.max 0. e)) eigs)))
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
                        sums.(j) <- sums.(j) +. Chunked.get d.expr local j
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
          analytics_with Device.Stat
            ~bytes_per_node:(8 * n_genes)
            (fun () ->
              head_only (fun () ->
                  Qcommon.enrichment_of ~n_genes ~go_pairs:ds.G.go ~go_terms
                    ~p_threshold:params.p_threshold ~scores)))
    in
    Engine.completed { dm; analytics }
      ~recovery:(Qcommon.cluster_recovery cluster) payload
  | Query.Q6_overlap ->
    (* Chunk-aligned intersection, multi-node: bins align with the array
       store's chunk width, each node owns a contiguous bin range, and
       the (small) interval tables are redistributed so every node holds
       the intervals its chunks touch. *)
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
          analytics_with Device.Stat
            ~bytes_per_node:
              (24 * (Array.length vivs + Array.length givs) / nodes)
            (fun () ->
              let per_node =
                Cluster.superstep cluster (fun node ->
                    Qcommon.overlap_pairs_in_span
                      ~min_overlap:params.min_overlap_bp ~span:spans.(node)
                      vivs givs)
              in
              let total =
                Array.fold_left (fun acc l -> acc + List.length l) 0 per_node
              in
              Cluster.gather cluster ~bytes_per_node:(24 * total / nodes);
              Qcommon.overlaps_of ~n_variants:(Array.length vivs)
                ~n_genes:(Array.length givs)
                (List.concat (Array.to_list per_node))))
    in
    Engine.completed { dm; analytics }
      ~recovery:(Qcommon.cluster_recovery cluster) payload

let make ~fault ~nodes =
  {
    Engine.name = "SciDB";
    kind = `Multi_node nodes;
    supports = (fun _ -> true);
    prepare = (fun ds q ~params ~timeout_s -> run ?fault ~nodes ds q ~params ~timeout_s);
  }

let engine ~nodes = make ~fault:None ~nodes
let faulty ~fault ~nodes = make ~fault:(Some fault) ~nodes

let engine_phi ~nodes =
  {
    Engine.name = "SciDB + Xeon Phi";
    kind = `Multi_node nodes;
    supports = (fun _ -> true);
    prepare =
      (fun ds q ~params ~timeout_s ->
        run ~device:Device.xeon_phi_5110p ~nodes ds q ~params ~timeout_s);
  }
