open Gb_relational
module Mat = Gb_linalg.Mat
module G = Gb_datagen.Generate
module Cluster = Gb_cluster.Cluster
module Partition = Gb_cluster.Partition
module Par = Gb_cluster.Par_linalg
module Chunked = Gb_arraydb.Chunked
module Device = Gb_coproc.Device
module Ranges = Gb_util.Ranges

(* What one query's run hands a back end: the simulated cluster, the
   query's parameters and its cooperative timeout hook. *)
type ctx = { cluster : Cluster.t; params : Query.params; check : unit -> unit }

(* A back end prepared on one data set. Its closures hold the node
   stores; each runs one query's per-node data management in the back
   end's own supersteps and returns the per-node results the shared
   program reduces. *)
type backend = {
  q1 : ctx -> Mat.t array * float array array;
      (** per-node design blocks (patients x selected genes), responses *)
  q2 : ctx -> Mat.t array;  (** per-node rows of the chosen disease *)
  q3 : ctx -> Mat.t array;  (** per-node rows of the age/gender cohort *)
  q4 : ctx -> Mat.t array;  (** per-node columns of the selected genes *)
  q5 : ctx -> k:int -> float array array;
      (** per-node expression sums over patients [< k], count last *)
  q6 : ctx -> Ranges.iv array * Ranges.iv array;
      (** the variant and gene interval tables *)
  metadata : string * (ctx -> (int * int * float) list -> unit);
      (** Q2's head-node metadata step: its phase name and body *)
  realign : Cluster.t -> unit;
      (** data movement before block-row analytics (Q1, Q2, Q4) *)
  marshal : Mat.t -> unit;  (** Q3's per-call marshalling on the head *)
}

let mat_bytes m =
  let r, c = Mat.dims m in
  8 * r * c

(* --- pbdR and SciDB: block-row slices of the expression matrix --- *)

(* How one back end holds a node's block of patient rows. *)
type 'm layout = {
  slice : Mat.t -> 'm;
  cols : 'm -> int array -> Mat.t;
  rows : 'm -> int array -> Mat.t;
  get : 'm -> int -> int -> float;
  realign_slices : 'm array -> Cluster.t -> unit;
}

let dense =
  {
    slice = Fun.id;
    cols = Mat.sub_cols;
    rows = Mat.sub_rows;
    get = Mat.unsafe_get;
    realign_slices = (fun _ _ -> ());
  }

(* Chunk realignment before analytics: going multi-node forces SciDB to
   redistribute the (whole) array so the selection's chunks align with
   the parallel kernels' layout. Chunks are rebuilt through storage, so
   the effective throughput is disk-bound, far below wire speed — this
   is the data movement the paper suspects makes SciDB slower on two
   nodes than on one. *)
let redistribution_bps = 200e6
let per_chunk_s = 0.0004

let chunked =
  {
    slice = Chunked.of_matrix;
    cols = (fun c ids -> Chunked.to_matrix (Chunked.select_cols c ids));
    rows = (fun c ids -> Chunked.to_matrix (Chunked.select_rows c ids));
    get = Chunked.get;
    realign_slices =
      (fun slices cluster ->
        if Array.length slices > 1 then begin
          let sum f = Array.fold_left (fun acc c -> acc + f c) 0 slices in
          let total_bytes = sum Chunked.byte_size in
          Cluster.shuffle cluster ~total_bytes;
          Cluster.advance cluster
            ((float_of_int total_bytes /. redistribution_bps)
            +. (float_of_int (sum Chunked.chunk_count) *. per_chunk_s))
        end);
  }

(* Each node holds an even block of patient rows (as the paper
   configured pbdR) in the layout's form, beside those patients'
   records; selections run per node, and the interval tables are read
   on the head. *)
let block_rows layout (ds : Dataset.t) ~nodes =
  let p, g = Mat.dims ds.expression in
  let blocks = Partition.block_rows ~rows:p ~nodes in
  let slices =
    Array.map
      (fun (start, len) ->
        layout.slice
          (Mat.init len g (fun i j ->
               Mat.unsafe_get ds.expression (start + i) j)))
      blocks
  in
  let patients =
    Array.map (fun (start, len) -> Array.sub ds.patients start len) blocks
  in
  let select ctx keep =
    Cluster.superstep ctx.cluster (fun node ->
        Array.to_list patients.(node)
        |> List.filter keep
        |> List.map (fun (p : G.patient) -> p.patient_id - fst blocks.(node))
        |> Array.of_list
        |> layout.rows slices.(node))
  in
  let genes ctx =
    let ids = Qcommon.genes_with_func_below ds ctx.params.func_threshold in
    Cluster.superstep ctx.cluster (fun node -> layout.cols slices.(node) ids)
  in
  let n_genes = Array.length ds.genes in
  {
    q1 =
      (fun ctx ->
        let parts = genes ctx in
        let ys =
          Cluster.superstep ctx.cluster (fun node ->
              Array.map (fun (p : G.patient) -> p.drug_response) patients.(node))
        in
        (parts, ys));
    q2 =
      (fun ctx ->
        select ctx (fun (p : G.patient) -> p.disease_id = ctx.params.disease_id));
    q3 =
      (fun ctx ->
        select ctx (fun (p : G.patient) ->
            p.age < ctx.params.max_age && p.gender = ctx.params.gender));
    q4 = genes;
    q5 =
      (fun ctx ~k ->
        Cluster.superstep ctx.cluster (fun node ->
            let sums = Array.make (n_genes + 1) 0. in
            Array.iteri
              (fun local (p : G.patient) ->
                if p.patient_id < k then begin
                  for j = 0 to n_genes - 1 do
                    sums.(j) <- sums.(j) +. layout.get slices.(node) local j
                  done;
                  sums.(n_genes) <- sums.(n_genes) +. 1.
                end)
              patients.(node);
            sums));
    q6 = (fun _ -> (Qcommon.variant_ivs ds, Qcommon.gene_ivs ds));
    metadata =
      ( "dm:metadata",
        fun _ pairs ->
          List.iter (fun (g1, _, _) -> ignore ds.genes.(g1).G.func) pairs );
    realign = layout.realign_slices slices;
    marshal = ignore;
  }

(* --- Column stores: per-node microarray blocks, replicated tables --- *)

(* The microarray table is row-partitioned by patient; the small tables
   are replicated, built once and shared by every node. Data management
   runs the relational plans per node. Behind [`Export_to_pbdr] each
   node's matrix crosses the CSV export boundary into pbdR; behind
   [`Udf] analytics run in-process, and the biclustering UDF keeps its
   chatty marshalling. *)
let columnar ~boundary (ds : Dataset.t) ~nodes =
  let table schema rows = Col_store.of_rows schema (rows ds) in
  let patients = table Dataset.patients_schema Dataset.patients_rows in
  let genes = table Dataset.genes_schema Dataset.genes_rows in
  let go = table Dataset.go_schema Dataset.go_rows in
  let variants = table Dataset.variants_schema Dataset.variants_rows in
  let micro = Dataset.microarray_rows ds in
  let blocks =
    Partition.block_rows ~rows:(fst (Mat.dims ds.expression)) ~nodes
    |> Array.map (fun (start, len) ->
           Col_store.of_rows Dataset.microarray_schema
             (List.filter
                (fun row ->
                  let pid = Value.to_int row.(1) in
                  pid >= start && pid < start + len)
                micro))
  in
  let db ctx node =
    let store = function
      | "microarray" -> blocks.(node)
      | "patients" -> patients
      | "genes" -> genes
      | "go" -> go
      | "variants" -> variants
      | t -> invalid_arg ("unknown table " ^ t)
    in
    {
      Relops.scan = (fun t cols -> Ops.scan_col_store (store t) cols);
      row_count = (fun t -> Col_store.row_count (store t));
      check = ctx.check;
    }
  in
  let each ctx f =
    Cluster.superstep ctx.cluster (fun node -> f (db ctx node))
  in
  let cross m =
    match boundary with
    | `Export_to_pbdr when fst (Mat.dims m) > 0 && snd (Mat.dims m) > 0 ->
      Export.roundtrip_matrix m
    | `Export_to_pbdr | `Udf -> m
  in
  let n_genes = Array.length ds.genes in
  let pad m = if snd (Mat.dims m) = n_genes then m else Mat.create 0 n_genes in
  let ivs ctx db table cols =
    let rel = Ops.guard ctx.check (db.Relops.scan table cols) in
    let ix = Array.of_list (List.map (Schema.index rel.Ops.schema) cols) in
    let int row k = Value.to_int row.(ix.(k)) in
    Seq.fold_left
      (fun acc row ->
        Ranges.of_start_len ~id:(int row 0) ~start:(int row 1) ~len:(int row 2)
        :: acc)
      [] rel.Ops.rows
    |> List.rev |> Array.of_list
  in
  {
    q1 =
      (fun ctx ->
        let locals =
          each ctx (fun db ->
              let x, y, _ = Relops.q1_dm db ctx.params in
              (cross x, y))
        in
        (Array.map fst locals, Array.map snd locals));
    q2 =
      (fun ctx ->
        each ctx (fun db -> cross (pad (fst (Relops.q2_dm db ctx.params)))));
    q3 = (fun ctx -> each ctx (fun db -> cross (pad (Relops.q3_dm db ctx.params))));
    q4 = (fun ctx -> each ctx (fun db -> cross (fst (Relops.q4_dm db ctx.params))));
    q5 =
      (fun ctx ~k ->
        each ctx (fun db ->
            let sel =
              Ops.filter
                Expr.(col "patient_id" <% int k)
                (Ops.guard ctx.check
                   (db.Relops.scan "microarray"
                      [ "gene_id"; "patient_id"; "value" ]))
            in
            let ix = Schema.index sel.Ops.schema in
            let gi = ix "gene_id" and pi = ix "patient_id" and vi = ix "value" in
            let sums = Array.make (n_genes + 1) 0. in
            let counted = Hashtbl.create 16 in
            Seq.iter
              (fun row ->
                let g = Value.to_int row.(gi) in
                sums.(g) <- sums.(g) +. Value.to_float row.(vi);
                Hashtbl.replace counted (Value.to_int row.(pi)) ())
              sel.Ops.rows;
            sums.(n_genes) <- float_of_int (Hashtbl.length counted);
            sums));
    q6 =
      (fun ctx ->
        (each ctx (fun db ->
             let vivs =
               ivs ctx db "variants" [ "variant_id"; "vstart"; "vlen" ]
             in
             (vivs, ivs ctx db "genes" [ "gene_id"; "position"; "length" ])))
          .(0));
    metadata =
      ( "dm:join_metadata",
        fun ctx pairs -> ignore (Relops.q2_join_metadata (db ctx 0) pairs) );
    realign = ignore;
    marshal =
      (match boundary with
      | `Udf ->
        fun m ->
          for _ = 1 to 3 do
            ignore (Export.roundtrip_matrix m)
          done
      | `Export_to_pbdr -> ignore);
  }

(* --- The shared superstep program --- *)

(* Q6's bin-aligned genome slices: the axis's fixed-width bins are
   block-partitioned across nodes, one contiguous [lo, hi) per node. *)
let node_spans ~nodes vivs givs =
  let hi m (iv : Ranges.iv) = max m iv.hi in
  let axis_end = Array.fold_left hi (Array.fold_left hi 0 vivs) givs in
  let bin_width = Ranges.default_bin_width in
  let nbins = max nodes (1 + Ranges.bin_of ~bin_width (max 0 (axis_end - 1))) in
  Partition.block_rows ~rows:nbins ~nodes
  |> Array.map (fun (start, len) ->
         (start * bin_width, (start + len) * bin_width))

(* One node's share of the Q6 join: sweep the intervals touching its
   span and keep the pairs it owns (the pair's max(starts) falls inside
   it), so boundary intervals replicated to two spans are counted once
   across the cluster. Interval ids index the full arrays. *)
let pairs_in_span ~min_overlap (lo, hi) vivs givs =
  let touching ivs =
    Array.to_list ivs
    |> List.filter (fun (iv : Ranges.iv) -> iv.lo < hi && iv.hi > lo)
    |> Array.of_list
  in
  Ranges.sweep_join ~min_overlap (touching vivs) (touching givs)
  |> List.filter (fun (v, g, _) ->
         let s = max vivs.(v).Ranges.lo givs.(g).Ranges.lo in
         s >= lo && s < hi)

let recovery cluster =
  let s = Cluster.stats cluster in
  {
    Engine.retries = s.Cluster.oom_retries + s.messages_dropped;
    recovered_nodes = s.crashes_recovered;
    speculative = s.speculative_restarts;
    wasted_s = s.wasted_seconds;
  }

let run ?device ?fault ~nodes (ds : Dataset.t) b query ~(params : Query.params)
    ~timeout_s =
  let dl = Gb_util.Deadline.start ~seconds:(2. *. timeout_s) in
  let cluster = Cluster.create ~nodes () in
  Cluster.set_deadline cluster timeout_s;
  Option.iter
    (fun plan ->
      Cluster.set_fault_plan cluster plan;
      (* Crash recovery is only interesting with something to restore
         from: checkpoint every 4 supersteps, 64 KiB of state per node. *)
      Cluster.set_checkpoint cluster ~every:4 ~bytes_per_node:65536)
    fault;
  let ctx = { cluster; params; check = (fun () -> Gb_util.Deadline.check dl) } in
  let phase name f =
    let t0 = Cluster.elapsed cluster in
    let gc = Gb_obs.Profile.start () in
    let r = f () in
    ctx.check ();
    let t1 = Cluster.elapsed cluster in
    Gb_obs.Obs.Span.emit ~cat:"phase"
      ~attrs:(Gb_obs.Profile.delta_attrs gc)
      ~name ~t0 ~t1 ();
    (r, t1 -. t0)
  in
  let head_only f =
    let out = ref None in
    ignore
      (Cluster.superstep cluster (fun node -> if node = 0 then out := Some (f ())));
    Option.get !out
  in
  (* Analytics on the nodes' cores, or on one coprocessor per node: each
     node's block crosses PCIe and superstep compute is scaled by the
     device's speedup for the kernel class. *)
  let analytics_phase cls ~bytes_per_node f =
    phase "analytics" (fun () ->
        match device with
        | None -> f ()
        | Some dev ->
          Cluster.advance cluster (Device.transfer_time dev ~bytes:bytes_per_node);
          Cluster.set_compute_speedup cluster (dev.Device.speedup cls);
          Fun.protect
            ~finally:(fun () -> Cluster.set_compute_speedup cluster 1.)
            f)
  in
  let blocks dm =
    phase "dm" (fun () ->
        let parts = dm ctx in
        b.realign cluster;
        parts)
  in
  let widest = Array.fold_left (fun acc p -> max acc (mat_bytes p)) 0 in
  let finish ~dm (payload, analytics) =
    Engine.completed { dm; analytics }
      ~recovery:(recovery cluster) payload
  in
  let n_genes = Array.length ds.genes in
  match query with
  | Query.Q1_regression ->
    let (parts, ys), dm = blocks b.q1 in
    finish ~dm
      (analytics_phase Device.Blas3 ~bytes_per_node:(widest parts) (fun () ->
           let beta = Par.regression cluster parts ys in
           let r2 = Par.r_squared cluster parts ys ~beta in
           Engine.Regression
             {
               intercept = beta.(0);
               coefficients = Array.sub beta 1 (Array.length beta - 1);
               r2;
             }))
  | Query.Q2_covariance ->
    let parts, dm0 = blocks b.q2 in
    let pairs, analytics =
      analytics_phase Device.Blas3 ~bytes_per_node:(widest parts) (fun () ->
          let c = Par.covariance cluster parts in
          (* The full covariance matrix lands on the head node, which
             thresholds the pairs. *)
          head_only (fun () ->
              Gb_linalg.Covariance.top_fraction c params.cov_top_fraction))
    in
    (* Step 4 joins the pairs against the replicated gene metadata. *)
    let name, join = b.metadata in
    let (), dm1 = phase name (fun () -> head_only (fun () -> join ctx pairs)) in
    finish ~dm:(dm0 +. dm1)
      (Engine.Cov_pairs { n_genes; top_pairs = pairs }, analytics)
  | Query.Q3_biclustering ->
    let head, dm =
      phase "dm" (fun () ->
          let parts = b.q3 ctx in
          let total = Array.fold_left (fun acc p -> acc + mat_bytes p) 0 parts in
          Cluster.gather cluster ~bytes_per_node:(total / nodes);
          Partition.concat_rows parts)
    in
    finish ~dm
      (analytics_phase Device.Light ~bytes_per_node:(mat_bytes head) (fun () ->
           head_only (fun () ->
               b.marshal head;
               Qcommon.biclusters_of head)))
  | Query.Q4_svd ->
    let parts, dm = blocks b.q4 in
    finish ~dm
      (analytics_phase Device.Blas2 ~bytes_per_node:(widest parts) (fun () ->
           let eigs = Par.lanczos_eigs cluster ~k:params.svd_k parts in
           Engine.Singular_values
             (Array.map (fun e -> sqrt (Float.max 0. e)) eigs)))
  | Query.Q5_statistics ->
    let scores, dm =
      phase "dm" (fun () ->
          let k =
            Query.sample_size params.sample_fraction (Array.length ds.patients)
          in
          let t = Cluster.allreduce_sum cluster (b.q5 ctx ~k) in
          let count = Float.max 1. t.(n_genes) in
          Array.init n_genes (fun j -> t.(j) /. count))
    in
    finish ~dm
      (analytics_phase Device.Stat ~bytes_per_node:(8 * n_genes) (fun () ->
           head_only (fun () ->
               Qcommon.enrichment_of ~n_genes ~go_pairs:ds.go
                 ~go_terms:ds.spec.Gb_datagen.Spec.go_terms
                 ~p_threshold:params.p_threshold ~scores)))
  | Query.Q6_overlap ->
    (* Shuffle-by-genomic-bin: every node receives the variant and gene
       intervals touching its bin-aligned genome slice (one shuffle of
       the two small interval tables), sweeps locally, and the head
       gathers the per-node pair lists. *)
    let (vivs, givs, spans), dm =
      phase "dm" (fun () ->
          let vivs, givs = b.q6 ctx in
          let spans = node_spans ~nodes vivs givs in
          Cluster.shuffle cluster
            ~total_bytes:(24 * (Array.length vivs + Array.length givs));
          (vivs, givs, spans))
    in
    let ivs = Array.length vivs + Array.length givs in
    finish ~dm
      (analytics_phase Device.Stat ~bytes_per_node:(24 * ivs / nodes) (fun () ->
           let per_node =
             Cluster.superstep cluster (fun node ->
                 pairs_in_span ~min_overlap:params.min_overlap_bp spans.(node)
                   vivs givs)
           in
           let total =
             Array.fold_left (fun acc l -> acc + List.length l) 0 per_node
           in
           Cluster.gather cluster ~bytes_per_node:(24 * total / nodes);
           Qcommon.overlaps_of ~n_variants:(Array.length vivs)
             ~n_genes:(Array.length givs)
             (List.concat (Array.to_list per_node))))

let make ~name ?device ?fault ~nodes build =
  {
    Engine.name;
    kind = `Multi_node nodes;
    supports = (fun _ -> true);
    prepare =
      (fun ds ->
        let b = build ds ~nodes in
        fun q ~params ~timeout_s ->
          run ?device ?fault ~nodes ds b q ~params ~timeout_s);
  }

let pbdr ?fault ~nodes () = make ~name:"pbdR" ?fault ~nodes (block_rows dense)
let scidb ?fault ~nodes () = make ~name:"SciDB" ?fault ~nodes (block_rows chunked)

let scidb_phi ~nodes =
  make ~name:"SciDB + Xeon Phi" ~device:Device.xeon_phi_5110p ~nodes
    (block_rows chunked)

let colstore_pbdr ?fault ~nodes () =
  make ~name:"Column store + pbdR" ?fault ~nodes
    (columnar ~boundary:`Export_to_pbdr)

let colstore_udf ?fault ~nodes () =
  make ~name:"Column store + UDFs" ?fault ~nodes (columnar ~boundary:`Udf)
