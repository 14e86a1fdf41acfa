open Gb_relational

(* Relops' rows, (patient_id, gene_id, value), as Sql_linalg triple
   rows (i = patient, j = gene), materialized inside the dm phase. [gene]
   renumbers gene ids; patient ids are not renumbered, since the SQL
   operators only group on them. *)
let triples ?(gene = Fun.id) rel =
  let ix = Schema.index rel.Ops.schema in
  let pi = ix "patient_id" and gi = ix "gene_id" and vi = ix "value" in
  Seq.map
    (fun row ->
      [| row.(pi); Value.Int (gene (Value.to_int row.(gi))); row.(vi) |])
    rel.Ops.rows
  |> List.of_seq

let prepare ds =
  let stores = Engine_sql.make_db Engine_sql.Row_backend ds in
  fun query ~(params : Query.params) ~timeout_s ->
  let dl = Gb_util.Deadline.start ~seconds:timeout_s in
  let check () = Gb_util.Deadline.check dl in
  let db = stores ~check in
  let n_genes = Array.length ds.Gb_datagen.Generate.genes in
  match query with
  | Query.Q1_regression ->
    (* MADlib's linear regression is a native C++ aggregate: one streaming
       pass assembling the normal equations. *)
    let (x, y, _gene_ids), dm =
      Engine.phase ~check "dm" (fun () -> Relops.q1_dm db params)
    in
    let payload, analytics =
      Engine.phase ~check "analytics" (fun () ->
          let m = Gb_linalg.Linreg.fit_normal_equations x y in
          Engine.Regression
            {
              intercept = m.Gb_linalg.Linreg.intercept;
              coefficients = m.Gb_linalg.Linreg.coefficients;
              r2 = m.Gb_linalg.Linreg.r_squared;
            })
    in
    Engine.Completed ({ dm; analytics }, payload)
  | Query.Q2_covariance ->
    (* Covariance "simulated in SQL": joins and aggregates over the triple
       relation, no native kernel. *)
    let (triples, n_sel), dm0 =
      Engine.phase ~check "dm" (fun () ->
          let rows = triples (Relops.rows db (Relops.q2_plan params)) in
          let patients = Hashtbl.create 64 in
          List.iter (fun row -> Hashtbl.replace patients row.(0) ()) rows;
          (Ops.of_list Sql_linalg.triple_schema rows, Hashtbl.length patients))
    in
    let payload, analytics =
      Engine.phase ~check "analytics" (fun () ->
          let cov_rel = Sql_linalg.covariance ~check ~rows:n_sel triples in
          let c = Sql_linalg.to_matrix ~rows:n_genes ~cols:n_genes cov_rel in
          let pairs =
            Gb_linalg.Covariance.top_fraction c params.cov_top_fraction
          in
          Engine.Cov_pairs { n_genes; top_pairs = pairs })
    in
    let pairs =
      match payload with Engine.Cov_pairs p -> p.top_pairs | _ -> []
    in
    let _n, dm1 =
      Engine.phase ~check "dm:join_metadata" (fun () ->
          Relops.q2_join_metadata db pairs)
    in
    Engine.Completed ({ dm = dm0 +. dm1; analytics }, payload)
  | Query.Q3_biclustering -> Engine.Unsupported
  | Query.Q4_svd ->
    (* The microarray is gene-major in ascending gene order, so numbering
       the selected genes by first appearance numbers them ascending. *)
    let (triples, n_sel_genes), dm =
      Engine.phase ~check "dm" (fun () ->
          let dense = Hashtbl.create 64 in
          let gene id =
            match Hashtbl.find_opt dense id with
            | Some k -> k
            | None ->
              let k = Hashtbl.length dense in
              Hashtbl.add dense id k;
              k
          in
          let rows = triples ~gene (Relops.rows db (Relops.genes_plan params)) in
          (Ops.of_list Sql_linalg.triple_schema rows, Hashtbl.length dense))
    in
    let n_patients = Array.length ds.Gb_datagen.Generate.patients in
    let payload, analytics =
      Engine.phase ~check "analytics" (fun () ->
          let eigs =
            Sql_linalg.power_iteration_eigs ~check ~rows:n_patients
              ~cols:n_sel_genes
              ~k:(min params.svd_k n_sel_genes)
              ~iters:8 triples
          in
          Engine.Singular_values
            (Array.map (fun e -> sqrt (Float.max 0. e)) eigs))
    in
    Engine.Completed ({ dm; analytics }, payload)
  | Query.Q5_statistics ->
    let (scores, go_pairs), dm =
      Engine.phase ~check "dm" (fun () ->
          Relops.q5_dm db params
            ~n_patients:(Array.length ds.Gb_datagen.Generate.patients))
    in
    (* The Wilcoxon test runs in plpython inside the database. *)
    let payload, analytics =
      Engine.phase ~check "analytics" (fun () ->
          Qcommon.enrichment_of ~n_genes:(Array.length scores) ~go_pairs
            ~go_terms:ds.Gb_datagen.Generate.spec.Gb_datagen.Spec.go_terms
            ~p_threshold:params.p_threshold ~scores)
    in
    Engine.Completed ({ dm; analytics }, payload)
  | Query.Q6_overlap ->
    let pairs, dm = Engine.phase ~check "dm" (fun () -> Relops.q6_dm db params) in
    let payload, analytics =
      Engine.phase ~check "analytics" (fun () ->
          Qcommon.overlaps_of
            ~n_variants:(Array.length ds.Gb_datagen.Generate.variants)
            ~n_genes pairs)
    in
    Engine.Completed ({ dm; analytics }, payload)

let engine =
  {
    Engine.name = "Postgres + Madlib";
    kind = `Single_node;
    supports = (fun q -> q <> Query.Q3_biclustering);
    prepare;
  }
