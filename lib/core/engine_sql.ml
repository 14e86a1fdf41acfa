open Gb_relational
module Mat = Gb_linalg.Mat
module Stopwatch = Gb_util.Clock.Stopwatch

type backend = Row_backend | Col_backend

(* The store set is built once, when [make_db backend ds] is applied;
   each [~check] then yields a db over the same stores. *)
let make_db backend ds =
  match backend with
  | Row_backend ->
    let db = Dataset.load_row_stores ds in
    let store = function
      | "microarray" -> db.Dataset.microarray_r
      | "patients" -> db.Dataset.patients_r
      | "genes" -> db.Dataset.genes_r
      | "go" -> db.Dataset.go_r
      | "variants" -> db.Dataset.variants_r
      | t -> invalid_arg ("unknown table " ^ t)
    in
    (* A row store decodes whole tuples, then projects. *)
    let scan table cols = Ops.project cols (Ops.scan_row_store (store table)) in
    let row_count table = Row_store.row_count (store table) in
    fun ~check -> { Relops.scan; row_count; check }
  | Col_backend ->
    let db = Dataset.load_col_stores ds in
    let store = function
      | "microarray" -> db.Dataset.microarray_c
      | "patients" -> db.Dataset.patients_c
      | "genes" -> db.Dataset.genes_c
      | "go" -> db.Dataset.go_c
      | "variants" -> db.Dataset.variants_c
      | t -> invalid_arg ("unknown table " ^ t)
    in
    let scan table cols = Ops.scan_col_store (store table) cols in
    let row_count table = Col_store.row_count (store table) in
    fun ~check -> { Relops.scan; row_count; check }

(* The export boundary ships the pivoted matrix (and response vector)
   through text, as the paper's external-R configurations must. *)
let cross_boundary boundary m =
  match boundary with
  | `Udf -> m
  | `Export_to_r -> Export.roundtrip_matrix m

let cross_boundary_vec boundary y =
  match boundary with
  | `Udf -> y
  | `Export_to_r ->
    let m = Mat.init (Array.length y) 1 (fun i _ -> y.(i)) in
    Mat.col (Export.roundtrip_matrix m) 0

let prepare ~backend ~boundary ds =
  let stores = make_db backend ds in
  fun query ~(params : Query.params) ~timeout_s ->
  let dl = Gb_util.Deadline.start ~seconds:timeout_s in
  let check () = Gb_util.Deadline.check dl in
  let db = stores ~check in
  let time name f =
    Gb_obs.Profile.with_ ~cat:"phase" ~name
      ~dur_of:(fun (_, t) -> Some t)
      (fun () ->
        let r, t = Stopwatch.time f in
        check ();
        (r, t))
  in
  match query with
  | Query.Q1_regression ->
    let (x, y, _gene_ids), dm0 = time "dm" (fun () -> Relops.q1_dm db params) in
    let (x, y), dm1 =
      time "boundary" (fun () ->
          (cross_boundary boundary x, cross_boundary_vec boundary y))
    in
    let payload, analytics =
      time "analytics" (fun () -> Qcommon.regression_of x y)
    in
    Engine.Completed ({ dm = dm0 +. dm1; analytics }, payload)
  | Query.Q2_covariance ->
    let (m, gene_ids), dm0 = time "dm" (fun () -> Relops.q2_dm db params) in
    let m, dm1 = time "boundary" (fun () -> cross_boundary boundary m) in
    let payload, analytics =
      time "analytics" (fun () ->
          Qcommon.covariance_of ~gene_ids ~top_fraction:params.cov_top_fraction
            m)
    in
    (* Step 4: the thresholded pairs go back into the DBMS and join the
       gene metadata. *)
    let pairs =
      match payload with Engine.Cov_pairs p -> p.top_pairs | _ -> []
    in
    let _n, dm2 =
      time "dm:join_metadata" (fun () -> Relops.q2_join_metadata db pairs)
    in
    Engine.Completed ({ dm = dm0 +. dm1 +. dm2; analytics }, payload)
  | Query.Q3_biclustering ->
    let m, dm0 = time "dm" (fun () -> Relops.q3_dm db params) in
    let m, dm1 = time "boundary" (fun () -> cross_boundary boundary m) in
    let payload, analytics =
      time "analytics" (fun () ->
          (match boundary with
          | `Udf ->
            (* The in-DB R-UDF interface marshals the matrix through the
               UDF protocol repeatedly during the iterative algorithm. *)
            for _ = 1 to 3 do
              ignore (Export.roundtrip_matrix m)
            done
          | `Export_to_r -> ());
          Qcommon.biclusters_of m)
    in
    Engine.Completed ({ dm = dm0 +. dm1; analytics }, payload)
  | Query.Q4_svd ->
    let (x, _gene_ids), dm0 = time "dm" (fun () -> Relops.q4_dm db params) in
    let x, dm1 = time "boundary" (fun () -> cross_boundary boundary x) in
    let payload, analytics =
      time "analytics" (fun () -> Qcommon.svd_of ~k:params.svd_k x)
    in
    Engine.Completed ({ dm = dm0 +. dm1; analytics }, payload)
  | Query.Q5_statistics ->
    let (scores, go_pairs), dm0 =
      time "dm" (fun () ->
          Relops.q5_dm db params ~n_patients:(Array.length ds.Gb_datagen.Generate.patients))
    in
    let scores, dm1 =
      time "boundary" (fun () -> cross_boundary_vec boundary scores)
    in
    let payload, analytics =
      time "analytics" (fun () ->
          Qcommon.enrichment_of
            ~n_genes:(Array.length scores)
            ~go_pairs
            ~go_terms:ds.Gb_datagen.Generate.spec.Gb_datagen.Spec.go_terms
            ~p_threshold:params.p_threshold ~scores)
    in
    Engine.Completed ({ dm = dm0 +. dm1; analytics }, payload)
  | Query.Q6_overlap ->
    (* Pure-relational: the planner's Interval_join sweep does all the
       work in the store; only the integer pair list crosses the R/UDF
       boundary, which costs the same either way. *)
    let pairs, dm = time "dm" (fun () -> Relops.q6_dm db params) in
    let payload, analytics =
      time "analytics" (fun () ->
          Qcommon.overlaps_of
            ~n_variants:(Array.length ds.Gb_datagen.Generate.variants)
            ~n_genes:(Array.length ds.Gb_datagen.Generate.genes)
            pairs)
    in
    Engine.Completed ({ dm; analytics }, payload)

let make ~name ~backend ~boundary =
  {
    Engine.name;
    kind = `Single_node;
    supports = (fun _ -> true);
    prepare = prepare ~backend ~boundary;
  }

let postgres_r =
  make ~name:"Postgres + R" ~backend:Row_backend ~boundary:`Export_to_r

let colstore_r =
  make ~name:"Column store + R" ~backend:Col_backend ~boundary:`Export_to_r

let colstore_udf =
  make ~name:"Column store + UDFs" ~backend:Col_backend ~boundary:`Udf
