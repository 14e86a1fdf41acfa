module Mat = Gb_linalg.Mat
module G = Gb_datagen.Generate
module Df = Gb_rlang.Dataframe
module Stopwatch = Gb_util.Clock.Stopwatch

(* 2^31 - 1 cells, divided by the benchmark's 25x25 cell scale-down. *)
let cell_budget =
  0x7FFFFFFF / (Gb_datagen.Spec.scale_divisor * Gb_datagen.Spec.scale_divisor)

let cells (ds : Dataset.t) =
  let p, g = Mat.dims ds.expression in
  p * g

(* R working-set model, in cells: the frame itself plus the read buffer
   (R materializes both while loading), then per-query temporaries. *)
let charge used extra =
  if used + extra > cell_budget then raise Engine.Memory_exceeded

let patients_frame (ds : Dataset.t) =
  Df.of_columns
    [
      ("patient_id", Df.Ints (Array.map (fun (p : G.patient) -> p.patient_id) ds.patients));
      ("age", Df.Ints (Array.map (fun (p : G.patient) -> p.age) ds.patients));
      ("gender", Df.Ints (Array.map (fun (p : G.patient) -> p.gender) ds.patients));
      ("disease_id", Df.Ints (Array.map (fun (p : G.patient) -> p.disease_id) ds.patients));
      ( "drug_response",
        Df.Floats (Array.map (fun (p : G.patient) -> p.drug_response) ds.patients) );
    ]

let genes_frame (ds : Dataset.t) =
  Df.of_columns
    [
      ("gene_id", Df.Ints (Array.map (fun (g : G.gene) -> g.gene_id) ds.genes));
      ("func", Df.Ints (Array.map (fun (g : G.gene) -> g.func) ds.genes));
    ]

let variants_frame (ds : Dataset.t) =
  Df.of_columns
    [
      ( "variant_id",
        Df.Ints (Array.map (fun (v : G.variant) -> v.variant_id) ds.variants) );
      ("vstart", Df.Ints (Array.map (fun (v : G.variant) -> v.vstart) ds.variants));
      ("vlen", Df.Ints (Array.map (fun (v : G.variant) -> v.vlen) ds.variants));
    ]

let coords_frame (ds : Dataset.t) =
  Df.of_columns
    [
      ("gene_id", Df.Ints (Array.map (fun (g : G.gene) -> g.gene_id) ds.genes));
      ("position", Df.Ints (Array.map (fun (g : G.gene) -> g.position) ds.genes));
      ("length", Df.Ints (Array.map (fun (g : G.gene) -> g.length) ds.genes));
    ]

let run ds query ~(params : Query.params) ~timeout_s =
  let dl = Gb_util.Deadline.start ~seconds:timeout_s in
  let base = 2 * cells ds in
  charge 0 base;
  let time name f =
    Gb_obs.Profile.with_ ~cat:"phase" ~name
      ~dur_of:(fun (_, t) -> Some t)
      (fun () ->
        let r, t = Stopwatch.time f in
        Gb_util.Deadline.check dl;
        (r, t))
  in
  match query with
  | Query.Q1_regression ->
    let (x, y), dm =
      time "dm" (fun () ->
          (* subset(genes, func < t); then slice the expression matrix on
             the selected gene columns. *)
          let genes = genes_frame ds in
          let funcs = Df.ints genes "func" in
          let sel =
            Df.subset genes (fun _ i -> funcs.(i) < params.func_threshold)
          in
          let gene_ids = Df.ints sel "gene_id" in
          let sel_cells = Array.length gene_ids * Array.length ds.G.patients in
          charge base (3 * sel_cells);
          let x = Mat.sub_cols ds.G.expression gene_ids in
          let y = Df.floats (patients_frame ds) "drug_response" in
          (x, y))
    in
    let payload, analytics = time "analytics" (fun () -> Qcommon.regression_of x y) in
    Engine.Completed ({ dm; analytics }, payload)
  | Query.Q2_covariance ->
    let (m, gene_ids), dm =
      time "dm" (fun () ->
          let patients = patients_frame ds in
          let disease = Df.ints patients "disease_id" in
          let pat_ids =
            Df.ints
              (Df.subset patients (fun _ i -> disease.(i) = params.disease_id))
              "patient_id"
          in
          let g = Array.length ds.G.genes in
          charge base ((2 * Array.length pat_ids * g) + (2 * g * g));
          (Mat.sub_rows ds.G.expression pat_ids, Array.init g Fun.id))
    in
    let payload, analytics =
      time "analytics" (fun () ->
          Qcommon.covariance_of ~gene_ids ~top_fraction:params.cov_top_fraction
            m)
    in
    Engine.Completed ({ dm; analytics }, payload)
  | Query.Q3_biclustering ->
    let m, dm =
      time "dm" (fun () ->
          let patients = patients_frame ds in
          let age = Df.ints patients "age" in
          let gender = Df.ints patients "gender" in
          let pat_ids =
            Df.ints
              (Df.subset patients (fun _ i ->
                   age.(i) < params.max_age && gender.(i) = params.gender))
              "patient_id"
          in
          charge base (2 * Array.length pat_ids * Array.length ds.G.genes);
          Mat.sub_rows ds.G.expression pat_ids)
    in
    let payload, analytics = time "analytics" (fun () -> Qcommon.biclusters_of m) in
    Engine.Completed ({ dm; analytics }, payload)
  | Query.Q4_svd ->
    let x, dm =
      time "dm" (fun () ->
          let genes = genes_frame ds in
          let funcs = Df.ints genes "func" in
          let gene_ids =
            Df.ints
              (Df.subset genes (fun _ i -> funcs.(i) < params.func_threshold))
              "gene_id"
          in
          charge base (3 * Array.length gene_ids * Array.length ds.G.patients);
          Mat.sub_cols ds.G.expression gene_ids)
    in
    let payload, analytics =
      time "analytics" (fun () -> Qcommon.svd_of ~k:params.svd_k x)
    in
    Engine.Completed ({ dm; analytics }, payload)
  | Query.Q5_statistics ->
    let scores, dm =
      time "dm" (fun () ->
          let sample = Qcommon.sampled_patients ds params.sample_fraction in
          charge base (2 * Array.length sample * Array.length ds.G.genes);
          Qcommon.enrichment_scores (Mat.sub_rows ds.G.expression sample))
    in
    let payload, analytics =
      time "analytics" (fun () ->
          Qcommon.enrichment_of
            ~n_genes:(Array.length ds.G.genes)
            ~go_pairs:ds.G.go
            ~go_terms:ds.G.spec.Gb_datagen.Spec.go_terms
            ~p_threshold:params.p_threshold ~scores)
    in
    Engine.Completed ({ dm; analytics }, payload)
  | Query.Q6_overlap ->
    (* The oracle plan: two data frames and a quadratic double loop —
       exactly what naive R code over GRanges-less data frames does.
       Every other engine's Q6 answer is checked against this. *)
    let (vs, gs), dm =
      time "dm" (fun () ->
          let vf = variants_frame ds and gf = coords_frame ds in
          let iv_of ids los lens i =
            Gb_util.Ranges.of_start_len ~id:ids.(i) ~start:los.(i)
              ~len:lens.(i)
          in
          let vs =
            let ids = Df.ints vf "variant_id"
            and los = Df.ints vf "vstart"
            and lens = Df.ints vf "vlen" in
            Array.init (Array.length ids) (iv_of ids los lens)
          in
          let gs =
            let ids = Df.ints gf "gene_id"
            and los = Df.ints gf "position"
            and lens = Df.ints gf "length" in
            Array.init (Array.length ids) (iv_of ids los lens)
          in
          charge base (3 * (Array.length vs + Array.length gs));
          (vs, gs))
    in
    let payload, analytics =
      time "analytics" (fun () ->
          Qcommon.overlaps_of ~n_variants:(Array.length vs)
            ~n_genes:(Array.length gs)
            (Gb_util.Ranges.nested_loop_join ~min_overlap:params.min_overlap_bp
               vs gs))
    in
    Engine.Completed ({ dm; analytics }, payload)

let engine =
  {
    Engine.name = "Vanilla R";
    kind = `Single_node;
    supports = (fun _ -> true);
    prepare = run;
  }
