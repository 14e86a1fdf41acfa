(* The traced replay: each request type of a workload is run again,
   outside the server, by calling every layer's public functions in the
   order the engine calls them, and each call is timed as a span kept in
   memory. Kernels are then called on the data-management output. Spans live in this file, not in the program: the untraced
   run's numbers stay free of tracing cost, and tracing inside the
   engines is left for later. *)

module Engine = Genbase.Engine
module Query = Genbase.Query
module Dataset = Genbase.Dataset
module Relops = Genbase.Relops
module Qcommon = Genbase.Qcommon
module Engine_sql = Genbase.Engine_sql
module Mat = Gb_linalg.Mat
module Obs = Gb_obs.Obs
module Export = Gb_relational.Export
module Chunked = Gb_arraydb.Chunked
module Attr = Gb_arraydb.Attr_array
module Ranges = Gb_util.Ranges
module Exec = Gb_stream.Exec

(* --- in-memory span recorder --- *)

type recorder = { epoch : float; mutable next_id : int; mutable spans : Obs.span list }

let recorder () = { epoch = Unix.gettimeofday (); next_id = 0; spans = [] }

(* [f] receives the new span's id so it can parent child spans. *)
let span rc ?(parent = -1) ?(attrs = []) ~cat ~name f =
  let id = rc.next_id in
  rc.next_id <- id + 1;
  let t0 = Unix.gettimeofday () in
  let r = f id in
  let t1 = Unix.gettimeofday () in
  rc.spans <-
    {
      Obs.id;
      parent;
      name;
      cat;
      track = Obs.Wall;
      tid = 0;
      t0 = t0 -. rc.epoch;
      dur = t1 -. t0;
      attrs;
    }
    :: rc.spans;
  r

let spans rc = List.rev rc.spans

(* --- request types --- *)

(* Data-management output, kept for the kernel calls. *)
type dm_out = {
  reg : (Mat.t * float array) option;
  cov : Mat.t option;
  bic : Mat.t option;
  svd : Mat.t option;
  enr : float array option;
  ovl : (Ranges.iv array * Ranges.iv array) option;
}

let no_dm = { reg = None; cov = None; bic = None; svd = None; enr = None; ovl = None }

let params = Query.default_params

let engine_family (e : Engine.t) =
  match e.Engine.name with
  | "Postgres + R" -> `Sql (Engine_sql.Row_backend, `Export_to_r)
  | "Column store + UDFs" -> `Sql (Engine_sql.Col_backend, `Udf)
  | "SciDB" -> `Array
  | "Vanilla R" -> `Frames
  | n -> invalid_arg ("e2e replay: no layer map for engine " ^ n)

let roundtrip_vec y =
  Mat.col (Export.roundtrip_matrix (Mat.init (Array.length y) 1 (fun i _ -> y.(i)))) 0

let go_terms (ds : Dataset.t) = ds.Gb_datagen.Generate.spec.Gb_datagen.Spec.go_terms

let enrichment ds ~go_pairs scores =
  Qcommon.enrichment_of ~n_genes:(Array.length scores) ~go_pairs
    ~go_terms:(go_terms ds) ~p_threshold:params.Query.p_threshold ~scores

let overlap_inputs ds = (Qcommon.variant_ivs ds, Qcommon.gene_ivs ds)

let overlaps ds pairs =
  Qcommon.overlaps_of
    ~n_variants:(Array.length ds.Gb_datagen.Generate.variants)
    ~n_genes:(Array.length ds.Gb_datagen.Generate.genes)
    pairs

(* Engine_sql.run, layer by layer. *)
let replay_sql rc ~parent ~backend ~boundary ds q =
  let sp cat f = span rc ~parent ~cat ~name:cat (fun _ -> f ()) in
  let db = sp "store" (fun () -> Engine_sql.make_db backend ds ~check:ignore) in
  let cross m = match boundary with `Udf -> m | `Export_to_r -> Export.roundtrip_matrix m in
  let cross_vec y = match boundary with `Udf -> y | `Export_to_r -> roundtrip_vec y in
  match q with
  | Query.Q1_regression ->
    let x, y, _ = sp "dm" (fun () -> Relops.q1_dm db params) in
    let x, y = sp "boundary" (fun () -> (cross x, cross_vec y)) in
    ignore (sp "analytics" (fun () -> Qcommon.regression_of x y));
    { no_dm with reg = Some (x, y) }
  | Query.Q2_covariance ->
    let m, gene_ids = sp "dm" (fun () -> Relops.q2_dm db params) in
    let m = sp "boundary" (fun () -> cross m) in
    let payload =
      sp "analytics" (fun () ->
          Qcommon.covariance_of ~gene_ids ~top_fraction:params.Query.cov_top_fraction m)
    in
    let pairs = match payload with Engine.Cov_pairs p -> p.top_pairs | _ -> [] in
    ignore (sp "dm" (fun () -> Relops.q2_join_metadata db pairs));
    { no_dm with cov = Some m }
  | Query.Q3_biclustering ->
    let m = sp "dm" (fun () -> Relops.q3_dm db params) in
    let m =
      sp "boundary" (fun () ->
          match boundary with
          | `Export_to_r -> Export.roundtrip_matrix m
          | `Udf ->
            (* the UDF protocol marshals the matrix three times *)
            for _ = 1 to 3 do
              ignore (Export.roundtrip_matrix m)
            done;
            m)
    in
    ignore (sp "analytics" (fun () -> Qcommon.biclusters_of m));
    { no_dm with bic = Some m }
  | Query.Q4_svd ->
    let x, _ = sp "dm" (fun () -> Relops.q4_dm db params) in
    let x = sp "boundary" (fun () -> cross x) in
    ignore (sp "analytics" (fun () -> Qcommon.svd_of ~k:params.Query.svd_k x));
    { no_dm with svd = Some x }
  | Query.Q5_statistics ->
    let scores, go_pairs =
      sp "dm" (fun () ->
          Relops.q5_dm db params
            ~n_patients:(Array.length ds.Gb_datagen.Generate.patients))
    in
    let scores = sp "boundary" (fun () -> cross_vec scores) in
    ignore (sp "analytics" (fun () -> enrichment ds ~go_pairs scores));
    { no_dm with enr = Some scores }
  | Query.Q6_overlap ->
    let pairs = sp "dm" (fun () -> Relops.q6_dm db params) in
    ignore (sp "analytics" (fun () -> overlaps ds pairs));
    { no_dm with ovl = Some (overlap_inputs ds) }

(* Engine_scidb: attribute filters and chunk selection, then the shared
   analytics. Its chunk-binned Q6 plan is replayed as the shared
   sort-merge sweep kernel. *)
let replay_array rc ~parent ds q =
  let sp cat f = span rc ~parent ~cat ~name:cat (fun _ -> f ()) in
  let adb = sp "store" (fun () -> Dataset.load_array_db ds) in
  let genes_below () =
    Attr.filter adb.Dataset.gene_attrs (fun i ->
        Attr.get adb.Dataset.gene_attrs "func" i
        < float_of_int params.Query.func_threshold)
  in
  let patients pred = Attr.filter adb.Dataset.patient_attrs pred in
  let pget name i = Attr.get adb.Dataset.patient_attrs name i in
  match q with
  | Query.Q1_regression ->
    let x, y =
      sp "dm" (fun () ->
          let sel = Chunked.select_cols adb.Dataset.expression (genes_below ()) in
          (Chunked.to_matrix sel, Attr.column adb.Dataset.patient_attrs "drug_response"))
    in
    ignore (sp "analytics" (fun () -> Qcommon.regression_of x y));
    { no_dm with reg = Some (x, y) }
  | Query.Q2_covariance ->
    let m =
      sp "dm" (fun () ->
          let ids =
            patients (fun i -> pget "disease_id" i = float_of_int params.Query.disease_id)
          in
          Chunked.to_matrix (Chunked.select_rows adb.Dataset.expression ids))
    in
    let gene_ids = Array.init (snd (Mat.dims m)) Fun.id in
    ignore
      (sp "analytics" (fun () ->
           Qcommon.covariance_of ~gene_ids ~top_fraction:params.Query.cov_top_fraction m));
    { no_dm with cov = Some m }
  | Query.Q3_biclustering ->
    let m =
      sp "dm" (fun () ->
          let ids =
            patients (fun i ->
                pget "age" i < float_of_int params.Query.max_age
                && pget "gender" i = float_of_int params.Query.gender)
          in
          Chunked.to_matrix (Chunked.select_rows adb.Dataset.expression ids))
    in
    ignore (sp "analytics" (fun () -> Qcommon.biclusters_of m));
    { no_dm with bic = Some m }
  | Query.Q4_svd ->
    let x =
      sp "dm" (fun () ->
          Chunked.to_matrix (Chunked.select_cols adb.Dataset.expression (genes_below ())))
    in
    ignore (sp "analytics" (fun () -> Qcommon.svd_of ~k:params.Query.svd_k x));
    { no_dm with svd = Some x }
  | Query.Q5_statistics ->
    let scores =
      sp "dm" (fun () ->
          let sample = Qcommon.sampled_patients ds params.Query.sample_fraction in
          Qcommon.enrichment_scores
            (Chunked.to_matrix (Chunked.select_rows adb.Dataset.expression sample)))
    in
    ignore
      (sp "analytics" (fun () -> enrichment ds ~go_pairs:adb.Dataset.go_pairs scores));
    { no_dm with enr = Some scores }
  | Query.Q6_overlap ->
    let vs, gs = sp "dm" (fun () -> overlap_inputs ds) in
    ignore
      (sp "analytics" (fun () ->
           overlaps ds (Qcommon.overlap_sweep ~min_overlap:params.Query.min_overlap_bp vs gs)));
    { no_dm with ovl = Some (vs, gs) }

(* Engine_r: dense in-memory slices, no store. *)
let replay_frames rc ~parent ds q =
  let sp cat f = span rc ~parent ~cat ~name:cat (fun _ -> f ()) in
  let expr = ds.Gb_datagen.Generate.expression in
  let genes_below () = Qcommon.genes_with_func_below ds params.Query.func_threshold in
  match q with
  | Query.Q1_regression ->
    let x, y =
      sp "dm" (fun () ->
          ( Mat.sub_cols expr (genes_below ()),
            Array.map
              (fun (p : Gb_datagen.Generate.patient) -> p.drug_response)
              ds.Gb_datagen.Generate.patients ))
    in
    ignore (sp "analytics" (fun () -> Qcommon.regression_of x y));
    { no_dm with reg = Some (x, y) }
  | Query.Q2_covariance ->
    let m =
      sp "dm" (fun () ->
          Mat.sub_rows expr (Qcommon.patients_with_disease ds params.Query.disease_id))
    in
    let gene_ids = Array.init (snd (Mat.dims m)) Fun.id in
    ignore
      (sp "analytics" (fun () ->
           Qcommon.covariance_of ~gene_ids ~top_fraction:params.Query.cov_top_fraction m));
    { no_dm with cov = Some m }
  | Query.Q3_biclustering ->
    let m =
      sp "dm" (fun () ->
          Mat.sub_rows expr
            (Qcommon.patients_by_age_gender ds ~max_age:params.Query.max_age
               ~gender:params.Query.gender))
    in
    ignore (sp "analytics" (fun () -> Qcommon.biclusters_of m));
    { no_dm with bic = Some m }
  | Query.Q4_svd ->
    let x = sp "dm" (fun () -> Mat.sub_cols expr (genes_below ())) in
    ignore (sp "analytics" (fun () -> Qcommon.svd_of ~k:params.Query.svd_k x));
    { no_dm with svd = Some x }
  | Query.Q5_statistics ->
    let scores =
      sp "dm" (fun () ->
          Qcommon.enrichment_scores
            (Mat.sub_rows expr (Qcommon.sampled_patients ds params.Query.sample_fraction)))
    in
    ignore
      (sp "analytics" (fun () -> enrichment ds ~go_pairs:ds.Gb_datagen.Generate.go scores));
    { no_dm with enr = Some scores }
  | Query.Q6_overlap ->
    let vs, gs = sp "dm" (fun () -> overlap_inputs ds) in
    ignore
      (sp "analytics" (fun () ->
           overlaps ds (Ranges.nested_loop_join ~min_overlap:params.Query.min_overlap_bp vs gs)));
    { no_dm with ovl = Some (vs, gs) }

let replay_type rc ~pass (e : Engine.t) ds q =
  span rc ~cat:"request" ~name:(Workload.type_key e q)
    ~attrs:
      [
        ("engine", Obs.Str e.Engine.name);
        ("query", Obs.Str (Query.name q));
        ("pass", Obs.Int pass);
      ]
    (fun parent ->
      match engine_family e with
      | `Sql (backend, boundary) -> replay_sql rc ~parent ~backend ~boundary ds q
      | `Array -> replay_array rc ~parent ds q
      | `Frames -> replay_frames rc ~parent ds q)

(* --- kernels, called directly on the data-management output --- *)

type kernel_work = { linreg_flop : float; cov_flop : float; cov_bytes : float }

let merge a b =
  let pick x y = match x with Some _ -> x | None -> y in
  {
    reg = pick a.reg b.reg;
    cov = pick a.cov b.cov;
    bic = pick a.bic b.bic;
    svd = pick a.svd b.svd;
    enr = pick a.enr b.enr;
    ovl = pick a.ovl b.ovl;
  }

let need what = function
  | Some v -> v
  | None -> failwith ("e2e replay: no data-management output for " ^ what)

let replay_kernels rc ds dm =
  let k name f = ignore (span rc ~cat:"kernel" ~name (fun _ -> f ())) in
  let x, y = need "regression" dm.reg in
  k "kernel.linreg_fit" (fun () -> Gb_linalg.Linreg.fit x y);
  let m = need "covariance" dm.cov in
  let c = span rc ~cat:"kernel" ~name:"kernel.covariance_matrix" (fun _ ->
      Gb_linalg.Covariance.matrix m) in
  k "kernel.cov_top_fraction" (fun () ->
      Gb_linalg.Covariance.top_fraction c params.Query.cov_top_fraction);
  k "kernel.cheng_church" (fun () -> Gb_bicluster.Cheng_church.run (need "biclustering" dm.bic));
  k "kernel.svd_top_k" (fun () ->
      Gb_linalg.Svd.top_k ~rng:(Gb_util.Prng.create 0x5EEDL) (need "svd" dm.svd)
        params.Query.svd_k);
  k "kernel.wilcoxon_enrichment" (fun () ->
      enrichment ds ~go_pairs:ds.Gb_datagen.Generate.go (need "statistics" dm.enr));
  let vs, gs = need "overlap" dm.ovl in
  k "kernel.overlap_sweep" (fun () ->
      Qcommon.overlap_sweep ~min_overlap:params.Query.min_overlap_bp vs gs);
  (* Work from shapes: Householder QR least squares on n x (p+1) is
     2np^2 - 2p^3/3; the covariance product X^T X is 2ng^2 and moves the
     n x g input and the g x g output. *)
  let n, p = Mat.dims x in
  let n = float_of_int n and p = float_of_int (p + 1) in
  let rows, g = Mat.dims m in
  let rows = float_of_int rows and g = float_of_int g in
  {
    linreg_flop = (2. *. n *. p *. p) -. (2. *. p *. p *. p /. 3.);
    cov_flop = 2. *. rows *. g *. g;
    cov_bytes = 8. *. ((rows *. g) +. (g *. g));
  }

(* --- the streaming layer --- *)

let stream_probe_batches = 10

(* A fresh executor over the run's base dataset and log replays the
   first batches with every step, refresh and the final snapshot timed;
   the read types are then replayed on that snapshot. *)
let replay_stream rc (run : Workload.run) st =
  let exec =
    Exec.create ~config:Workload.stream_config ~queries:Query.all
      (List.hd run.Workload.datasets)
      st.Workload.log
  in
  for _ = 1 to stream_probe_batches do
    span rc ~cat:"stream" ~name:"stream.step" (fun _ -> Exec.step exec);
    List.iter
      (fun q ->
        ignore
          (span rc ~cat:"stream" ~name:("stream.refresh." ^ Query.name q) (fun _ ->
               Exec.refresh exec q)))
      Query.all
  done;
  span rc ~cat:"stream" ~name:"stream.snapshot" (fun _ -> Exec.snapshot exec)

type t = {
  spans : Obs.span list;
  kernels : kernel_work;
}

(* Every request type is replayed once on each of the run's datasets (on
   the stream's final snapshot, that many times) and kernels as often;
   each layer reports its median: one replay of an allocation-heavy
   layer moves by a fifth with the state of the heap. *)
let passes = Workload.datasets_per_run

let run (r : Workload.run) =
  let rc = recorder () in
  let w = r.Workload.workload in
  let datasets =
    match r.Workload.stream with
    | Some st ->
      let snap = replay_stream rc r st in
      List.init passes (fun _ -> snap)
    | None -> r.Workload.datasets
  in
  let dm = ref no_dm in
  List.iteri
    (fun i ds ->
      List.iter
        (fun (e, q) -> dm := merge !dm (replay_type rc ~pass:(i + 1) e ds q))
        (Workload.types w))
    datasets;
  (* the kept data-management output came from the first dataset *)
  let ds = List.hd datasets in
  let kernels = List.init passes (fun _ -> replay_kernels rc ds !dm) in
  { spans = spans rc; kernels = List.hd kernels }

let chrome t = Gb_obs.Trace_export.chrome_json (List.map (fun s -> Obs.Span_ev s) t.spans)
