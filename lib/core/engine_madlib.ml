open Gb_relational
module Stopwatch = Gb_util.Clock.Stopwatch

(* Re-key a (patient_id, gene_id, value) relation into Sql_linalg triple
   form, renumbering columns densely via [gene_index]. *)
let to_triples rel ~gene_index =
  let s = rel.Ops.schema in
  let pi = Schema.index s "patient_id" in
  let gi = Schema.index s "gene_id" in
  let vi = Schema.index s "value" in
  {
    Ops.schema = Sql_linalg.triple_schema;
    rows =
      Seq.map
        (fun row ->
          [|
            row.(pi);
            Value.Int (gene_index (Value.to_int row.(gi)));
            row.(vi);
          |])
        rel.Ops.rows;
  }

let dense_index ids =
  let tbl = Hashtbl.create (Array.length ids) in
  Array.iteri (fun k id -> Hashtbl.add tbl id k) ids;
  fun id -> Hashtbl.find tbl id

(* Patient ids are not renumbered: the SQL operators only group on them. *)
let identity_triples rel =
  to_triples rel ~gene_index:Fun.id

let prepare ds =
  let stores = Engine_sql.make_db Engine_sql.Row_backend ds in
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
  let n_genes = Array.length ds.Gb_datagen.Generate.genes in
  match query with
  | Query.Q1_regression ->
    (* MADlib's linear regression is a native C++ aggregate: one streaming
       pass assembling the normal equations. *)
    let (x, y, _gene_ids), dm = time "dm" (fun () -> Relops.q1_dm db params) in
    let payload, analytics =
      time "analytics" (fun () ->
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
      time "dm" (fun () ->
          let joined =
            Ops.filter
              Expr.(col "disease_id" =% int params.disease_id)
              (db.Relops.scan "patients" [ "patient_id"; "disease_id" ])
            |> Ops.project [ "patient_id" ]
            |> Ops.hash_join ~on:[ ("patient_id", "patient_id") ]
                 (Ops.guard check
                    (db.Relops.scan "microarray"
                       [ "gene_id"; "patient_id"; "value" ]))
          in
          let rows = Ops.to_list (identity_triples joined) in
          let distinct = Hashtbl.create 64 in
          List.iter
            (fun row ->
              Hashtbl.replace distinct (Value.to_int row.(0)) ())
            rows;
          (Ops.of_list Sql_linalg.triple_schema rows, Hashtbl.length distinct))
    in
    let payload, analytics =
      time "analytics" (fun () ->
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
    let _n, dm1 = time "dm:join_metadata" (fun () -> Relops.q2_join_metadata db pairs) in
    Engine.Completed ({ dm = dm0 +. dm1; analytics }, payload)
  | Query.Q3_biclustering -> Engine.Unsupported
  | Query.Q4_svd ->
    let (triples, n_patients, n_sel_genes), dm =
      time "dm" (fun () ->
          let genes_sel =
            Ops.filter
              Expr.(col "func" <% int params.func_threshold)
              (db.Relops.scan "genes" [ "gene_id"; "func" ])
            |> Ops.project [ "gene_id" ]
          in
          let gene_ids =
            Ops.to_list genes_sel
            |> List.map (fun r -> Value.to_int r.(0))
            |> Array.of_list
          in
          Array.sort compare gene_ids;
          let joined =
            Ops.hash_join ~on:[ ("gene_id", "gene_id") ]
              (Ops.guard check
                 (db.Relops.scan "microarray"
                    [ "gene_id"; "patient_id"; "value" ]))
              (Ops.of_list
                 (Schema.make [ ("gene_id", Value.TInt) ])
                 (Array.to_list
                    (Array.map (fun id -> [| Value.Int id |]) gene_ids)))
          in
          let idx = dense_index gene_ids in
          let rows = Ops.to_list (to_triples joined ~gene_index:idx) in
          ( Ops.of_list Sql_linalg.triple_schema rows,
            Array.length ds.Gb_datagen.Generate.patients,
            Array.length gene_ids ))
    in
    let payload, analytics =
      time "analytics" (fun () ->
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
      time "dm" (fun () ->
          Relops.q5_dm db params
            ~n_patients:(Array.length ds.Gb_datagen.Generate.patients))
    in
    (* The Wilcoxon test runs in plpython inside the database. *)
    let payload, analytics =
      time "analytics" (fun () ->
          Qcommon.enrichment_of ~n_genes:(Array.length scores) ~go_pairs
            ~go_terms:ds.Gb_datagen.Generate.spec.Gb_datagen.Spec.go_terms
            ~p_threshold:params.p_threshold ~scores)
    in
    Engine.Completed ({ dm; analytics }, payload)
  | Query.Q6_overlap ->
    (* Hand-written SQL pipeline (no planner): scan both interval tables
       and run the sort-merge sweep operator directly, as a MADlib-style
       native aggregate would. *)
    let pairs, dm =
      time "dm" (fun () ->
          let joined =
            Ops.interval_join ~trace:"interval_join"
              ~min_overlap:params.min_overlap_bp
              ~left_span:("vstart", "vlen") ~right_span:("position", "length")
              (Ops.guard check
                 (db.Relops.scan "variants" [ "variant_id"; "vstart"; "vlen" ]))
              (db.Relops.scan "genes" [ "gene_id"; "position"; "length" ])
          in
          let s = joined.Ops.schema in
          let vi = Schema.index s "variant_id" in
          let gi = Schema.index s "gene_id" in
          let oi = Schema.index s "overlap_len" in
          Ops.to_list joined
          |> List.map (fun row ->
                 ( Value.to_int row.(vi),
                   Value.to_int row.(gi),
                   Value.to_int row.(oi) )))
    in
    let payload, analytics =
      time "analytics" (fun () ->
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
