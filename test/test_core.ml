open Genbase
module Spec = Gb_datagen.Spec

let tiny = Dataset.generate (Spec.custom ~genes:60 ~patients:160)

let run_ok e q =
  match Engine.run e tiny q ~timeout_s:60. () with
  | Engine.Completed (t, p) ->
    Alcotest.(check bool) "dm >= 0" (t.Engine.dm >= 0.) true;
    Alcotest.(check bool) "analytics >= 0" (t.Engine.analytics >= 0.) true;
    p
  | o ->
    Alcotest.failf "%s on %s: %s" e.Engine.name (Query.name q)
      (Format.asprintf "%a" Engine.pp_outcome o)

let all_engines =
  [
    Engine_r.engine;
    Engine_sql.postgres_r;
    Engine_madlib.engine;
    Engine_sql.colstore_r;
    Engine_sql.colstore_udf;
    Engine_scidb.engine;
    Engine_scidb.phi;
    Engine_hadoop.engine;
    Engine_multinode.pbdr ~nodes:2 ();
    Engine_multinode.scidb ~nodes:2 ();
    Engine_multinode.colstore_pbdr ~nodes:2 ();
    Engine_multinode.colstore_udf ~nodes:2 ();
  ]

let supporting q =
  List.filter (fun e -> e.Engine.supports q) all_engines

(* --- cross-engine agreement --- *)

let test_q1_agreement () =
  let results =
    List.map (fun e -> (e.Engine.name, run_ok e Query.Q1_regression))
      (supporting Query.Q1_regression)
  in
  let ref_intercept, ref_coefs =
    match List.assoc "Vanilla R" results with
    | Engine.Regression r -> (r.intercept, r.coefficients)
    | _ -> Alcotest.fail "bad payload"
  in
  List.iter
    (fun (name, p) ->
      match p with
      | Engine.Regression r ->
        Alcotest.(check (float 1e-3)) (name ^ " intercept") ref_intercept
          r.intercept;
        Alcotest.(check int)
          (name ^ " coef count")
          (Array.length ref_coefs)
          (Array.length r.coefficients);
        Array.iteri
          (fun i c ->
            Alcotest.(check (float 1e-3)) (name ^ " coef") c r.coefficients.(i))
          ref_coefs
      | _ -> Alcotest.failf "%s: wrong payload kind" name)
    results

let test_q2_agreement () =
  let results =
    List.map (fun e -> (e.Engine.name, run_ok e Query.Q2_covariance))
      (supporting Query.Q2_covariance)
  in
  let ref_pairs =
    match List.assoc "SciDB" results with
    | Engine.Cov_pairs p -> p.top_pairs
    | _ -> Alcotest.fail "bad payload"
  in
  let key (a, b, _) = (a, b) in
  let ref_keys = List.map key ref_pairs in
  List.iter
    (fun (name, p) ->
      match p with
      | Engine.Cov_pairs p ->
        Alcotest.(check int) (name ^ " pair count") (List.length ref_pairs)
          (List.length p.top_pairs);
        (* Same gene pairs survive the threshold (order may vary on ties
           between near-equal covariances, so compare as sets). *)
        let keys = List.map key p.top_pairs in
        List.iter
          (fun k ->
            Alcotest.(check bool)
              (Printf.sprintf "%s has pair (%d,%d)" name (fst k) (snd k))
              true (List.mem k keys))
          ref_keys
      | _ -> Alcotest.failf "%s: wrong payload kind" name)
    results

let test_q3_agreement () =
  let results =
    List.map (fun e -> (e.Engine.name, run_ok e Query.Q3_biclustering))
      (supporting Query.Q3_biclustering)
  in
  let reference =
    match List.assoc "Vanilla R" results with
    | Engine.Biclusters b -> b.clusters
    | _ -> Alcotest.fail "bad payload"
  in
  Alcotest.(check bool) "reference found clusters" (reference <> []) true;
  List.iter
    (fun (name, p) ->
      match p with
      | Engine.Biclusters b ->
        Alcotest.(check int) (name ^ " cluster count") (List.length reference)
          (List.length b.clusters);
        List.iter2
          (fun (r1, c1, _) (r2, c2, _) ->
            Alcotest.(check (array int)) (name ^ " rows") r1 r2;
            Alcotest.(check (array int)) (name ^ " cols") c1 c2)
          reference b.clusters
      | _ -> Alcotest.failf "%s: wrong payload kind" name)
    results

let test_q4_agreement () =
  let results =
    List.map (fun e -> (e.Engine.name, run_ok e Query.Q4_svd))
      (supporting Query.Q4_svd)
  in
  let reference =
    match List.assoc "Vanilla R" results with
    | Engine.Singular_values s -> s
    | _ -> Alcotest.fail "bad payload"
  in
  List.iter
    (fun (name, p) ->
      match p with
      | Engine.Singular_values s ->
        (* Approximate engines (MADlib power iteration) get a loose bound
           on the top value; exact Lanczos engines must agree closely. *)
        let tol = if name = "Postgres + Madlib" then 0.05 else 1e-5 in
        Alcotest.(check bool)
          (name ^ " top singular value")
          (Float.abs (s.(0) -. reference.(0)) < tol *. reference.(0) +. 1e-9)
          true
      | _ -> Alcotest.failf "%s: wrong payload kind" name)
    results

let test_q5_agreement () =
  let results =
    List.map (fun e -> (e.Engine.name, run_ok e Query.Q5_statistics))
      (supporting Query.Q5_statistics)
  in
  let reference =
    match List.assoc "Vanilla R" results with
    | Engine.Enrichment e -> e
    | _ -> Alcotest.fail "bad payload"
  in
  Alcotest.(check bool) "found enriched terms" (reference <> []) true;
  List.iter
    (fun (name, p) ->
      match p with
      | Engine.Enrichment e ->
        Alcotest.(check (list int))
          (name ^ " same terms")
          (List.map fst reference) (List.map fst e)
      | _ -> Alcotest.failf "%s: wrong payload kind" name)
    results

let test_q5_planted_terms_found () =
  match run_ok Engine_scidb.engine Query.Q5_statistics with
  | Engine.Enrichment found ->
    let found_ids = List.map fst found in
    Array.iter
      (fun term ->
        Alcotest.(check bool)
          (Printf.sprintf "planted term %d enriched" term)
          true (List.mem term found_ids))
      tiny.Gb_datagen.Generate.planted.Gb_datagen.Generate.enriched_terms
  | _ -> Alcotest.fail "bad payload"

(* --- support matrix --- *)

let test_support_matrix () =
  Alcotest.(check bool) "madlib no biclustering"
    (not (Engine_madlib.engine.Engine.supports Query.Q3_biclustering))
    true;
  Alcotest.(check bool) "hadoop no statistics"
    (not (Engine_hadoop.engine.Engine.supports Query.Q5_statistics))
    true;
  Alcotest.(check bool) "hadoop no biclustering"
    (not (Engine_hadoop.engine.Engine.supports Query.Q3_biclustering))
    true;
  List.iter
    (fun q ->
      Alcotest.(check bool) "scidb supports all"
        (Engine_scidb.engine.Engine.supports q)
        true)
    Query.all

let test_unsupported_outcome () =
  match
    Engine.run Engine_madlib.engine tiny Query.Q3_biclustering ~timeout_s:5. ()
  with
  | Engine.Unsupported -> ()
  | _ -> Alcotest.fail "expected Unsupported"

(* --- memory-budget behavior --- *)

let test_r_fails_on_large () =
  let large = Dataset.of_size Spec.Large in
  match Engine.run Engine_r.engine large Query.Q1_regression ~timeout_s:60. () with
  | Engine.Out_of_memory -> ()
  | o ->
    Alcotest.failf "expected out-of-memory, got %s"
      (Format.asprintf "%a" Engine.pp_outcome o)

let test_r_ok_on_small () =
  let small = Dataset.of_size Spec.Small in
  match Engine.run Engine_r.engine small Query.Q1_regression ~timeout_s:60. () with
  | Engine.Completed _ -> ()
  | o ->
    Alcotest.failf "expected success, got %s"
      (Format.asprintf "%a" Engine.pp_outcome o)

(* --- timeout behavior --- *)

let test_timeout_reported () =
  match
    Engine.run Engine_hadoop.engine tiny Query.Q4_svd ~timeout_s:0.2 ()
  with
  | Engine.Timed_out -> ()
  | o ->
    Alcotest.failf "expected timeout, got %s"
      (Format.asprintf "%a" Engine.pp_outcome o)

(* --- export boundary shows up in timing --- *)

let test_export_boundary_costs () =
  let medium = Dataset.of_size Spec.Medium in
  let dm_of e =
    match Engine.run e medium Query.Q1_regression ~timeout_s:120. () with
    | Engine.Completed (t, _) -> t.Engine.dm
    | _ -> Alcotest.fail "run failed"
  in
  let with_export = dm_of Engine_sql.colstore_r in
  let without = dm_of Engine_sql.colstore_udf in
  Alcotest.(check bool) "export costs more DM" (with_export > without) true

(* --- harness --- *)

let test_harness_cells_and_figures () =
  let config =
    { Harness.quick_config with timeout_s = 20. }
  in
  let cells = Harness.single_node_cells config in
  Alcotest.(check int) "7 engines x 6 queries" 42 (List.length cells);
  let figs = Harness.fig1 cells in
  Alcotest.(check int) "five charts" 5 (List.length figs);
  List.iter
    (fun f -> Alcotest.(check bool) "chart nonempty" (String.length f > 100) true)
    figs;
  let fig2 = Harness.fig2 cells in
  Alcotest.(check int) "two charts" 2 (List.length fig2);
  (* Figure 2 omits Postgres rows, per the paper. *)
  List.iter
    (fun chart ->
      Alcotest.(check bool) "no Postgres row"
        (not
           (String.split_on_char '\n' chart
           |> List.exists (fun line ->
                  String.length line > 2
                  && String.sub line 0 2 = "| "
                  && String.length line > 10
                  && String.sub line 2 8 = "Postgres")))
        true)
    fig2

let test_harness_total_seconds () =
  let c =
    {
      Harness.engine = "x";
      nodes = 1;
      query = Query.Q1_regression;
      size = Spec.Small;
      outcome = Engine.Timed_out;
      breakdown = [];
      counters = [];
    }
  in
  Alcotest.(check (option (float 0.))) "timeout is infinite" (Some infinity)
    (Harness.total_seconds c);
  let u = { c with outcome = Engine.Unsupported } in
  Alcotest.(check (option (float 0.))) "unsupported is none" None
    (Harness.total_seconds u)

let test_degenerate_selection_reports_error () =
  (* A disease id outside the generated range selects no patients; the
     covariance query cannot run, and the engine must report an error
     outcome rather than crash. *)
  let params = { Query.default_params with Query.disease_id = 9999 } in
  match
    Engine.run Engine_r.engine tiny Query.Q2_covariance ~params ~timeout_s:10.
      ()
  with
  | Engine.Errored _ -> ()
  | o ->
    Alcotest.failf "expected error outcome, got %s"
      (Format.asprintf "%a" Engine.pp_outcome o)

let test_errored_counts_as_infinite () =
  let c =
    {
      Harness.engine = "x";
      nodes = 1;
      query = Query.Q2_covariance;
      size = Spec.Small;
      outcome = Engine.Errored "boom";
      breakdown = [];
      counters = [];
    }
  in
  Alcotest.(check (option (float 0.))) "infinite" (Some infinity)
    (Harness.total_seconds c)

(* --- prepared sessions --- *)

let outcome_fingerprint = function
  | Engine.Completed (_, p) | Engine.Degraded (_, _, p) ->
    Gb_conformance.Compare.fingerprint p
  | o -> Format.asprintf "%a" Engine.pp_outcome o

(* Reuse gives the same answer: a memoized session answers Q1-Q6 twice,
   in a seeded shuffled order, each time bit-identically to a fresh
   [Engine.run] on the same data. Multi-node sessions hold their node
   stores, so the five cluster configurations are covered at 2 nodes. *)
let test_session_reuse_matches_fresh () =
  let order = Array.of_list (Query.all @ Query.all) in
  Gb_util.Prng.shuffle (Gb_util.Prng.create 0x5E5510L) order;
  List.iter
    (fun e ->
      let fresh =
        List.map
          (fun q -> (q, outcome_fingerprint (Engine.run e tiny q ~timeout_s:60. ())))
          Query.all
      in
      let session = Engine.memo e in
      Array.iteri
        (fun k q ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s (request %d)" e.Engine.name (Query.name q) k)
            (List.assoc q fresh)
            (outcome_fingerprint (Engine.run session tiny q ~timeout_s:60. ())))
        order)
    (Harness.single_node_engines
    @ [
        Engine_scidb.phi;
        Engine_multinode.pbdr ~nodes:2 ();
        Engine_multinode.scidb ~nodes:2 ();
        Engine_multinode.scidb_phi ~nodes:2;
        Engine_multinode.colstore_pbdr ~nodes:2 ();
        Engine_multinode.colstore_udf ~nodes:2 ();
      ])

(* A sub-second cell is rerun up to four more times; the reruns share
   the cell's one prepared session. *)
let test_harness_cell_prepares_once () =
  let prepares = ref 0 in
  let e =
    {
      Engine.name = "Counting";
      kind = `Single_node;
      supports = (fun _ -> true);
      prepare =
        (fun _ ->
          incr prepares;
          fun _ ~params:_ ~timeout_s:_ ->
            Engine.completed { Engine.dm = 0.; analytics = 0. }
              (Engine.Singular_values [||]));
    }
  in
  ignore (Harness.run_cell e tiny Query.Q1_regression ~timeout_s:10.);
  Alcotest.(check int) "one prepare per cell" 1 !prepares

(* A traced cell runs once: the reruns that keep an untraced sub-second
   cell's best total would otherwise stack their phase spans (and add up
   their counters) under a root span one attempt long. *)
let test_traced_cell_runs_once () =
  let module Obs = Gb_obs.Obs in
  let ds = Dataset.of_size Spec.Small in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      List.iter
        (fun e ->
          Obs.reset ();
          ignore (Harness.run_cell e ds Query.Q1_regression ~timeout_s:60.);
          let phases =
            List.filter_map
              (function
                | Obs.Span_ev s when s.Obs.cat = "phase" -> Some s.Obs.name
                | _ -> None)
              (Obs.events ())
          in
          Alcotest.(check bool)
            (e.Engine.name ^ " records phases")
            true (phases <> []);
          List.iter
            (fun name ->
              Alcotest.(check int)
                (Printf.sprintf "%s: one %s span" e.Engine.name name)
                1
                (List.length (List.filter (( = ) name) phases)))
            (List.sort_uniq compare phases))
        [ Engine_scidb.engine; Engine_sql.colstore_udf ])

(* The lean builders store the microarray table straight from the
   matrix; pages and column encodings must equal the row-list path, for
   the whole table and for a multi-node column store's per-node block. *)
let test_lean_store_builders () =
  let module Col_store = Gb_relational.Col_store in
  let schema = Dataset.microarray_schema in
  let same_columns label lean rows =
    let reference = Col_store.of_rows schema rows in
    Alcotest.(check int) (label ^ ": row count")
      (Col_store.row_count reference) (Col_store.row_count lean);
    List.iteri
      (fun i (name, _) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: column %s equal" label name)
          true
          (Col_store.column lean i = Col_store.column reference i))
      (Gb_relational.Schema.columns schema)
  in
  let odd = Dataset.generate ~seed:11L (Spec.custom ~genes:37 ~patients:53) in
  List.iter
    (fun (label, ds) ->
      let rows = Dataset.microarray_rows ds in
      let lean = (Dataset.load_row_stores ds).Dataset.microarray_r in
      let reference = Gb_relational.Row_store.of_rows schema rows in
      Alcotest.(check int) (label ^ ": page count")
        (Gb_relational.Row_store.page_count reference)
        (Gb_relational.Row_store.page_count lean);
      Alcotest.(check bool) (label ^ ": rows decode equal") true
        (List.of_seq (Gb_relational.Row_store.to_seq lean) = rows);
      same_columns label (Dataset.load_col_stores ds).Dataset.microarray_c rows)
    [ ("small", Dataset.of_size Spec.Small); ("37x53", odd) ];
  let start, len = (Gb_cluster.Partition.block_rows ~rows:53 ~nodes:4).(2) in
  same_columns "37x53, node 2 of 4"
    (Dataset.microarray_block odd ~start ~len)
    (List.filter
       (fun row ->
         let pid = Gb_relational.Value.to_int row.(1) in
         pid >= start && pid < start + len)
       (Dataset.microarray_rows odd))

(* --- multi-node cluster ledger --- *)

(* One cell's deterministic cluster ledger: the payload fingerprint, the
   superstep count, the phase names in order and every comm op with its
   bytes in order. Simulated times are left out (they are measured). *)
let cell_ledger e ds q =
  let module Obs = Gb_obs.Obs in
  Obs.reset ();
  let outcome = Engine.run e ds q ~timeout_s:600. () in
  let spans =
    List.filter_map
      (function Obs.Span_ev s -> Some s | Obs.Instant_ev _ -> None)
      (Obs.events ())
  in
  let names cat = List.filter (fun s -> s.Obs.cat = cat) spans in
  let comm s =
    match List.assoc_opt "bytes" s.Obs.attrs with
    | Some (Obs.Int b) -> Printf.sprintf "%s=%d" s.Obs.name b
    | _ -> s.Obs.name
  in
  String.concat "\n"
    [
      outcome_fingerprint outcome;
      Printf.sprintf "supersteps %d" (List.length (names "superstep"));
      "phases " ^ String.concat "," (List.map (fun s -> s.Obs.name) (names "phase"));
      "comm " ^ String.concat "," (List.map comm (names "comm"));
    ]

let ledger_configs =
  [
    ("pbdR", fun nodes -> Engine_multinode.pbdr ~nodes ());
    ("SciDB", fun nodes -> Engine_multinode.scidb ~nodes ());
    ("SciDB + Xeon Phi", fun nodes -> Engine_multinode.scidb_phi ~nodes);
    ("Column store + pbdR", fun nodes -> Engine_multinode.colstore_pbdr ~nodes ());
    ("Column store + UDFs", fun nodes -> Engine_multinode.colstore_udf ~nodes ());
  ]

(* Per (configuration, nodes): one 8-hex digest of each query's ledger,
   Q1..Q6, computed before the multi-node engines shared one program.
   Simulated communication, superstep structure and answers must not
   move under a refactor of that program. *)
let ledger_golden =
  [
    (("pbdR", 1),
     "1c9b8b67 51a5e071 dfa9a18c ef0954fd 5a498c5c 81c97f23");
    (("pbdR", 2),
     "0dc8705f 51a5e071 d1c1df66 db5b53d5 5a498c5c de93d950");
    (("pbdR", 4),
     "890183f3 5586a784 3bdc96bd 7683b59d 5a498c5c b4935ef6");
    (("SciDB", 1),
     "1c9b8b67 51a5e071 dfa9a18c ef0954fd 5a498c5c 81c97f23");
    (("SciDB", 2),
     "8023c072 bea0f56d d1c1df66 fdbf35bf 5a498c5c de93d950");
    (("SciDB", 4),
     "aaf00d49 36776032 3bdc96bd 0c20537c 5a498c5c b4935ef6");
    (("SciDB + Xeon Phi", 1),
     "1c9b8b67 51a5e071 dfa9a18c ef0954fd 5a498c5c 81c97f23");
    (("SciDB + Xeon Phi", 2),
     "8023c072 bea0f56d d1c1df66 fdbf35bf 5a498c5c de93d950");
    (("SciDB + Xeon Phi", 4),
     "aaf00d49 36776032 3bdc96bd 0c20537c 5a498c5c b4935ef6");
    (("Column store + pbdR", 1),
     "f4044871 31e29cb0 e658b0ba f378879b 5a498c5c 6045cd7f");
    (("Column store + pbdR", 2),
     "f732a367 31e29cb0 2d41aeed ffd62e9e 5a498c5c c7a707fa");
    (("Column store + pbdR", 4),
     "d62b4055 86c2a75e 7a2fe82e d963b3b1 5a498c5c c3817c44");
    (("Column store + UDFs", 1),
     "c55dad74 6d57c3da dfa9a18c ef0954fd 5a498c5c 6045cd7f");
    (("Column store + UDFs", 2),
     "29f36cd1 6d57c3da d1c1df66 db5b53d5 5a498c5c c7a707fa");
    (("Column store + UDFs", 4),
     "37730276 a2a77244 3bdc96bd 7683b59d 5a498c5c c3817c44");
  ]

let test_multinode_ledger_golden () =
  let module Obs = Gb_obs.Obs in
  let ds = Dataset.of_size Spec.Small in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      List.iter
        (fun (name, make) ->
          List.iter
            (fun nodes ->
              let e = make nodes in
              Alcotest.(check string) "configuration name" name e.Engine.name;
              let ledgers = List.map (fun q -> (q, cell_ledger e ds q)) Query.all in
              let got =
                List.map
                  (fun (_, l) -> String.sub (Digest.to_hex (Digest.string l)) 0 8)
                  ledgers
              in
              let pinned =
                String.split_on_char ' ' (List.assoc (name, nodes) ledger_golden)
              in
              List.iteri
                (fun i (q, ledger) ->
                  let want = Option.value (List.nth_opt pinned i) ~default:"" in
                  if List.nth got i <> want then
                    Alcotest.failf
                      "%s, %s, %d nodes: ledger digest %s, pinned %s \
                       (row digests: %s)\n%s"
                      name (Query.name q) nodes (List.nth got i) want
                      (String.concat " " got) ledger)
                ledgers)
            [ 1; 2; 4 ])
        ledger_configs)

(* --- single-node phase ledger --- *)

(* One single-node cell's ledger: the outcome fingerprint, then every
   span in recording order as category, clock track and name, with its
   [bytes] or [rows] attribute when it has one. Durations and GC
   attributes are measured, so they are left out. *)
let span_ledger e ds q =
  let module Obs = Gb_obs.Obs in
  Obs.reset ();
  let outcome = Engine.run e ds q ~timeout_s:600. () in
  let line = function
    | Obs.Span_ev s ->
      let size =
        List.filter_map
          (fun key ->
            match List.assoc_opt key s.Obs.attrs with
            | Some (Obs.Int n) -> Some (Printf.sprintf " %s=%d" key n)
            | _ -> None)
          [ "bytes"; "rows" ]
      in
      Some
        (Printf.sprintf "%s %s %s%s" s.Obs.cat
           (match s.Obs.track with Obs.Wall -> "wall" | Obs.Sim -> "sim")
           s.Obs.name (String.concat "" size))
    | Obs.Instant_ev _ -> None
  in
  String.concat "\n"
    (outcome_fingerprint outcome :: List.filter_map line (Obs.events ()))

let single_node_configs =
  [
    Engine_r.engine;
    Engine_sql.postgres_r;
    Engine_madlib.engine;
    Engine_sql.colstore_r;
    Engine_sql.colstore_udf;
    Engine_scidb.engine;
    Engine_scidb.phi;
    Engine_hadoop.engine;
  ]

(* Per configuration: one 8-hex digest of each query's span ledger,
   Q1..Q6 on Small, computed before the single-node engines shared one
   program. Answers, phase structure, kernel spans and device transfers
   must not move under a refactor of that program. *)
let single_ledger_golden =
  [
    ("Vanilla R",
     "8669d070 684e77ce ed5c8a23 3682b993 deb984f1 23c441a7");
    ("Postgres + R",
     "a7ae8795 4a9cacb8 1668a24a 394ab853 b8d7890c fe5573d0");
    ("Postgres + Madlib",
     "8ba03f65 00e6ea72 723c2587 e331426f c9333866 0e6acab9");
    ("Column store + R",
     "a7ae8795 4a9cacb8 1668a24a 394ab853 b8d7890c fe5573d0");
    ("Column store + UDFs",
     "0604c20c f8468215 65fd08c0 cc2f84bc a7945c40 fe5573d0");
    ("SciDB",
     "aa683bb7 97f3e39a 730e5eaa 3b836f5a e56b5086 75dfbc5e");
    ("SciDB + Xeon Phi",
     "af25e8b0 0f879596 81aaede6 230e4573 bccb4fa0 e5ac106f");
    ("Hadoop",
     "66eaa5d0 ee9a48d8 723c2587 20a3c733 723c2587 8a3360d6");
  ]

let test_single_node_ledger_golden () =
  let module Obs = Gb_obs.Obs in
  let ds = Dataset.of_size Spec.Small in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      List.iter
        (fun e ->
          let name = e.Engine.name in
          let ledgers = List.map (fun q -> (q, span_ledger e ds q)) Query.all in
          let got =
            List.map
              (fun (_, l) -> String.sub (Digest.to_hex (Digest.string l)) 0 8)
              ledgers
          in
          let pinned =
            match List.assoc_opt name single_ledger_golden with
            | Some row -> String.split_on_char ' ' row
            | None -> []
          in
          List.iteri
            (fun i (q, ledger) ->
              let want = Option.value (List.nth_opt pinned i) ~default:"" in
              if List.nth got i <> want then
                Alcotest.failf
                  "%s, %s: ledger digest %s, pinned %s (row digests: %s)\n%s"
                  name (Query.name q) (List.nth got i) want
                  (String.concat " " got) ledger)
            ledgers)
        single_node_configs)

let suite =
  [
    ("q1 cross-engine agreement", `Quick, test_q1_agreement);
    ("q2 cross-engine agreement", `Quick, test_q2_agreement);
    ("q3 cross-engine agreement", `Quick, test_q3_agreement);
    ("q4 cross-engine agreement", `Quick, test_q4_agreement);
    ("q5 cross-engine agreement", `Quick, test_q5_agreement);
    ("q5 planted terms found", `Quick, test_q5_planted_terms_found);
    ("support matrix", `Quick, test_support_matrix);
    ("unsupported outcome", `Quick, test_unsupported_outcome);
    ("vanilla R fails on large", `Quick, test_r_fails_on_large);
    ("vanilla R ok on small", `Quick, test_r_ok_on_small);
    ("timeout reported", `Quick, test_timeout_reported);
    ("export boundary costs", `Quick, test_export_boundary_costs);
    ("harness cells and figures", `Slow, test_harness_cells_and_figures);
    ("harness outcome mapping", `Quick, test_harness_total_seconds);
    ("degenerate selection errors", `Quick, test_degenerate_selection_reports_error);
    ("errored counts as infinite", `Quick, test_errored_counts_as_infinite);
    ("session reuse matches fresh runs", `Quick, test_session_reuse_matches_fresh);
    ("harness cell prepares once", `Quick, test_harness_cell_prepares_once);
    ("traced cell runs once", `Quick, test_traced_cell_runs_once);
    ("lean store builders", `Quick, test_lean_store_builders);
    ("multi-node ledger golden", `Quick, test_multinode_ledger_golden);
    ("single-node ledger golden", `Quick, test_single_node_ledger_golden);
  ]

