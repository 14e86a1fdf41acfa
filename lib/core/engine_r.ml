module Mat = Gb_linalg.Mat
module G = Gb_datagen.Generate
module Df = Gb_rlang.Dataframe

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
      ("position", Df.Ints (Array.map (fun (g : G.gene) -> g.position) ds.genes));
      ("length", Df.Ints (Array.map (fun (g : G.gene) -> g.length) ds.genes));
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

(* R loads the data set into frames, holding two copies (read buffer
   and frame) — where the paper's R fails on the large data set; each
   query's selections are subsets of the frames, charged as they
   materialize. *)
let frames (ds : Dataset.t) =
  let base = 2 * cells ds in
  charge 0 base;
  let charge extra = charge base extra in
  let patients = patients_frame ds and genes = genes_frame ds in
  let variants = variants_frame ds in
  let n_patients = Array.length ds.patients and g = Array.length ds.genes in
  let genes_below (params : Query.params) =
    let funcs = Df.ints genes "func" in
    Df.ints
      (Df.subset genes (fun _ i -> funcs.(i) < params.func_threshold))
      "gene_id"
  in
  let patients_where keep =
    Df.ints (Df.subset patients (fun _ i -> keep i)) "patient_id"
  in
  let b =
    {
      Engine_single.q1 =
        (fun params ->
          let gene_ids = genes_below params in
          charge (3 * Array.length gene_ids * n_patients);
          ( Mat.sub_cols ds.expression gene_ids,
            Df.floats patients "drug_response" ));
      q2 =
        (fun params ->
          let disease = Df.ints patients "disease_id" in
          let pat_ids =
            patients_where (fun i -> disease.(i) = params.disease_id)
          in
          charge ((2 * Array.length pat_ids * g) + (2 * g * g));
          (Mat.sub_rows ds.expression pat_ids, Array.init g Fun.id));
      q3 =
        (fun params ->
          let age = Df.ints patients "age" in
          let gender = Df.ints patients "gender" in
          let pat_ids =
            patients_where (fun i ->
                age.(i) < params.max_age && gender.(i) = params.gender)
          in
          charge (2 * Array.length pat_ids * g);
          Mat.sub_rows ds.expression pat_ids);
      q4 =
        (fun params ->
          let gene_ids = genes_below params in
          charge (3 * Array.length gene_ids * n_patients);
          Mat.sub_cols ds.expression gene_ids);
      q5 =
        (fun params ->
          let sample = Qcommon.sampled_patients ds params.sample_fraction in
          charge (2 * Array.length sample * g);
          ( Qcommon.enrichment_scores (Mat.sub_rows ds.expression sample),
            ds.go ));
      (* Interval vectors from two data frames, joined the way R users
         do (IRanges' findOverlaps, data.table's foverlaps): an index of
         the gene starts, searched once per variant. Its three vectors
         (order, starts, running maximum of ends) are charged with the
         intervals. Every other engine's Q6 answer is checked against
         this one. *)
      q6 =
        (fun params ->
          let ivs f ~id ~lo ~len =
            let ids = Df.ints f id in
            let los = Df.ints f lo and lens = Df.ints f len in
            Array.init (Array.length ids) (fun i ->
                Gb_util.Ranges.of_start_len ~id:ids.(i) ~start:los.(i)
                  ~len:lens.(i))
          in
          let vs = ivs variants ~id:"variant_id" ~lo:"vstart" ~len:"vlen" in
          let gs = ivs genes ~id:"gene_id" ~lo:"position" ~len:"length" in
          charge (3 * (Array.length vs + (2 * Array.length gs)));
          fun () ->
            Gb_util.Ranges.indexed_join ~min_overlap:params.min_overlap_bp vs
              gs);
      metadata = None;
    }
  in
  fun ~check:_ -> b

let engine = Engine_single.make ~name:"Vanilla R" frames
