open Gb_relational
module Mat = Gb_linalg.Mat
module G = Gb_datagen.Generate
module Cluster = Gb_cluster.Cluster
module Partition = Gb_cluster.Partition
module Par = Gb_cluster.Par_linalg

type node_db = { db : Relops.db; block_start : int; block_len : int }

(* Partition the microarray table by patient block; replicate the small
   dimension tables on every node. *)
let partition (ds : Dataset.t) nodes ~check =
  let p, _ = Mat.dims ds.expression in
  let patients_rows = Dataset.patients_rows ds in
  let genes_rows = Dataset.genes_rows ds in
  let go_rows = Dataset.go_rows ds in
  let variants_rows = Dataset.variants_rows ds in
  Partition.block_rows ~rows:p ~nodes
  |> Array.map (fun (start, len) ->
         let micro_rows =
           Dataset.microarray_rows ds
           |> List.filter (fun row ->
                  let pid = Value.to_int row.(1) in
                  pid >= start && pid < start + len)
         in
         let micro =
           Col_store.of_rows Dataset.microarray_schema micro_rows
         in
         let pats = Col_store.of_rows Dataset.patients_schema patients_rows in
         let genes = Col_store.of_rows Dataset.genes_schema genes_rows in
         let go = Col_store.of_rows Dataset.go_schema go_rows in
         let vars = Col_store.of_rows Dataset.variants_schema variants_rows in
         let store = function
           | "microarray" -> micro
           | "patients" -> pats
           | "genes" -> genes
           | "go" -> go
           | "variants" -> vars
           | table -> invalid_arg ("unknown table " ^ table)
         in
         let scan table cols = Ops.scan_col_store (store table) cols in
         let row_count table = Col_store.row_count (store table) in
         {
           db = { Relops.scan; row_count; check };
           block_start = start;
           block_len = len;
         })

let mat_bytes m =
  let r, c = Mat.dims m in
  8 * r * c

let pad_empty m n_cols =
  if snd (Mat.dims m) = n_cols then m else Mat.create 0 n_cols

(* pbdR boundary: each node exports its partition through text before the
   parallel kernels see it. *)
let cross m = function
  | `Export_to_pbdr ->
    if fst (Mat.dims m) = 0 || snd (Mat.dims m) = 0 then m
    else Export.roundtrip_matrix m
  | `Udf -> m

let run ~boundary ?fault ~nodes ds query ~(params : Query.params) ~timeout_s =
  let dl = Gb_util.Deadline.start ~seconds:(2. *. timeout_s) in
  let cluster = Cluster.create ~nodes () in
  Cluster.set_deadline cluster timeout_s;
  Qcommon.arm_cluster cluster fault;
  let check () = Gb_util.Deadline.check dl in
  let data = partition ds nodes ~check in
  let phase name f =
    let t0 = Cluster.elapsed cluster in
    let gc = Gb_obs.Profile.start () in
    let r = f () in
    check ();
    let t1 = Cluster.elapsed cluster in
    Gb_obs.Obs.Span.emit ~cat:"phase"
      ~attrs:(Gb_obs.Profile.delta_attrs gc)
      ~name ~t0 ~t1 ();
    (r, t1 -. t0)
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
          let locals =
            Cluster.superstep cluster (fun node ->
                let x, y, _ = Relops.q1_dm data.(node).db params in
                (cross x boundary, y))
          in
          (Array.map fst locals, Array.map snd locals))
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
              let m, _ = Relops.q2_dm data.(node).db params in
              cross (pad_empty m n_genes) boundary))
    in
    let payload, analytics =
      phase "analytics" (fun () ->
          let c = Par.covariance cluster parts in
          let pairs =
            head_only (fun () ->
                Gb_linalg.Covariance.top_fraction c params.cov_top_fraction)
          in
          Engine.Cov_pairs { n_genes; top_pairs = pairs })
    in
    let pairs =
      match payload with Engine.Cov_pairs p -> p.top_pairs | _ -> []
    in
    let _n, dm1 =
      phase "dm:join_metadata" (fun () ->
          head_only (fun () -> Relops.q2_join_metadata data.(0).db pairs))
    in
    Engine.completed { dm = dm0 +. dm1; analytics }
      ~recovery:(Qcommon.cluster_recovery cluster) payload
  | Query.Q3_biclustering ->
    let head_matrix, dm =
      phase "dm" (fun () ->
          let parts =
            Cluster.superstep cluster (fun node ->
                let m = Relops.q3_dm data.(node).db params in
                cross (pad_empty m n_genes) boundary)
          in
          let total_bytes =
            Array.fold_left (fun acc p -> acc + mat_bytes p) 0 parts
          in
          Cluster.gather cluster ~bytes_per_node:(total_bytes / nodes);
          Partition.concat_rows parts)
    in
    let payload, analytics =
      phase "analytics" (fun () ->
          head_only (fun () ->
              (match boundary with
              | `Udf ->
                for _ = 1 to 3 do
                  ignore (Export.roundtrip_matrix head_matrix)
                done
              | `Export_to_pbdr -> ());
              Qcommon.biclusters_of head_matrix))
    in
    Engine.completed { dm; analytics }
      ~recovery:(Qcommon.cluster_recovery cluster) payload
  | Query.Q4_svd ->
    let parts, dm =
      phase "dm" (fun () ->
          Cluster.superstep cluster (fun node ->
              let x, _ = Relops.q4_dm data.(node).db params in
              cross x boundary))
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
                let micro =
                  Ops.guard check
                    (d.db.Relops.scan "microarray"
                       [ "gene_id"; "patient_id"; "value" ])
                in
                let sel =
                  Ops.filter Expr.(col "patient_id" <% int k) micro
                in
                let sums = Array.make (n_genes + 1) 0. in
                let counted = Hashtbl.create 16 in
                let s = sel.Ops.schema in
                let gi = Schema.index s "gene_id" in
                let pi = Schema.index s "patient_id" in
                let vi = Schema.index s "value" in
                Seq.iter
                  (fun row ->
                    let g = Value.to_int row.(gi) in
                    sums.(g) <- sums.(g) +. Value.to_float row.(vi);
                    Hashtbl.replace counted (Value.to_int row.(pi)) ())
                  sel.Ops.rows;
                sums.(n_genes) <- float_of_int (Hashtbl.length counted);
                sums)
          in
          let t = Cluster.allreduce_sum cluster partials in
          let count = Float.max 1. t.(n_genes) in
          Array.init n_genes (fun j -> t.(j) /. count))
    in
    let payload, analytics =
      phase "analytics" (fun () ->
          head_only (fun () ->
              Qcommon.enrichment_of ~n_genes ~go_pairs:ds.G.go ~go_terms
                ~p_threshold:params.p_threshold ~scores))
    in
    Engine.completed { dm; analytics }
      ~recovery:(Qcommon.cluster_recovery cluster) payload
  | Query.Q6_overlap ->
    (* Shuffle-by-genomic-bin: the interval tables are replicated column
       stores, so each node scans them locally, sweeps its bin-aligned
       genome slice, and the head gathers the per-node pair lists. Only
       integer tuples would cross the pbdR export boundary, so the
       boundary makes no difference to this query. *)
    let module Ranges = Gb_util.Ranges in
    let ivs_of db table cols =
      let rel = Ops.guard check (db.Relops.scan table cols) in
      let s = rel.Ops.schema in
      let id_i = Schema.index s (List.nth cols 0) in
      let lo_i = Schema.index s (List.nth cols 1) in
      let len_i = Schema.index s (List.nth cols 2) in
      Seq.fold_left
        (fun acc row ->
          Ranges.of_start_len
            ~id:(Value.to_int row.(id_i))
            ~start:(Value.to_int row.(lo_i))
            ~len:(Value.to_int row.(len_i))
          :: acc)
        [] rel.Ops.rows
      |> List.rev |> Array.of_list
    in
    let (vivs, givs, spans), dm =
      phase "dm" (fun () ->
          let locals =
            Cluster.superstep cluster (fun node ->
                let db = data.(node).db in
                ( ivs_of db "variants" [ "variant_id"; "vstart"; "vlen" ],
                  ivs_of db "genes" [ "gene_id"; "position"; "length" ] ))
          in
          let vivs, givs = locals.(0) in
          let spans =
            Qcommon.overlap_node_spans ~bin_width:Ranges.default_bin_width
              ~nodes
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

let make ~name ~boundary ~fault ~nodes =
  {
    Engine.name = name;
    kind = `Multi_node nodes;
    supports = (fun _ -> true);
    prepare =
      (fun ds q ~params ~timeout_s ->
        run ~boundary ?fault ~nodes ds q ~params ~timeout_s);
  }

let pbdr ~nodes =
  make ~name:"Column store + pbdR" ~boundary:`Export_to_pbdr ~fault:None ~nodes

let udf ~nodes =
  make ~name:"Column store + UDFs" ~boundary:`Udf ~fault:None ~nodes

let pbdr_faulty ~fault ~nodes =
  make ~name:"Column store + pbdR" ~boundary:`Export_to_pbdr
    ~fault:(Some fault) ~nodes

let udf_faulty ~fault ~nodes =
  make ~name:"Column store + UDFs" ~boundary:`Udf ~fault:(Some fault) ~nodes
