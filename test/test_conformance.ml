(* The conformance subsystem's own tests: comparator unit tests (including
   deliberately broken payloads, proving mismatches are detected),
   differential and chaos grids on tiny data, metamorphic qcheck
   properties that need no oracle, and the seed-stability regression. *)

open Gb_conformance
module Engine = Genbase.Engine
module Query = Genbase.Query
module Dataset = Genbase.Dataset
module Harness = Genbase.Harness
module Spec = Gb_datagen.Spec
module Fault = Gb_fault.Fault

let check = Alcotest.check
let checkb = Alcotest.(check bool)

let t0 = { Engine.dm = 0.; analytics = 0. }
let done_ p = Engine.Completed (t0, p)
let dflt = Query.default_params

let equivalentb ?(tol = Compare.strict) ?p_threshold a b =
  Compare.equivalent (Compare.compare_payload ~tol ?p_threshold ~reference:a b)

let regression = Engine.Regression { intercept = 1.5; coefficients = [| 0.25; -3.0; 7.5e-3 |]; r2 = 0.87 }
let cov = Engine.Cov_pairs { n_genes = 5; top_pairs = [ (0, 1, 2.0); (2, 3, -1.5); (1, 4, 0.5) ] }
let spectrum = Engine.Singular_values [| 10.0; 4.0; 1.0 |]
let biclusters =
  Engine.Biclusters
    { clusters = [ ([| 1; 2; 3 |], [| 0; 4 |], 0.1); ([| 5; 6 |], [| 2; 3 |], 0.2) ] }
let enrichment = Engine.Enrichment [ (3, 0.001); (7, 0.04) ]
let overlaps =
  Engine.Overlaps
    { n_variants = 8; n_genes = 4; pairs = [ (0, 1, 12); (2, 0, 3); (5, 3, 200) ] }
let all_payloads = [ regression; cov; spectrum; biclusters; enrichment; overlaps ]

(* --- comparator unit tests --- *)

let contains s affix =
  let n = String.length affix in
  let rec go i = i + n <= String.length s && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let test_identical_equivalent () =
  List.iter
    (fun p ->
      match Compare.compare_payload ~reference:p p with
      | Compare.Equivalent d -> check (Alcotest.float 0.) "zero divergence" 0. d
      | _ -> Alcotest.failf "not equivalent to itself: %s" (Engine.payload_kind p))
    all_payloads

(* Acceptance criterion: a deliberately broken answer must be detected. *)
let test_broken_payloads_detected () =
  let broken =
    [
      ( "intercept off",
        regression,
        Engine.Regression { intercept = 1.5001; coefficients = [| 0.25; -3.0; 7.5e-3 |]; r2 = 0.87 } );
      ( "coefficient off",
        regression,
        Engine.Regression { intercept = 1.5; coefficients = [| 0.25; -3.1; 7.5e-3 |]; r2 = 0.87 } );
      ( "coefficient count",
        regression,
        Engine.Regression { intercept = 1.5; coefficients = [| 0.25 |]; r2 = 0.87 } );
      ( "cov score off",
        cov,
        Engine.Cov_pairs { n_genes = 5; top_pairs = [ (0, 1, 2.01); (2, 3, -1.5); (1, 4, 0.5) ] } );
      ( "cov pair swapped far from cutoff",
        cov,
        Engine.Cov_pairs { n_genes = 5; top_pairs = [ (0, 2, 2.0); (2, 3, -1.5); (1, 4, 0.5) ] } );
      ( "cov universe",
        cov,
        Engine.Cov_pairs { n_genes = 6; top_pairs = [ (0, 1, 2.0); (2, 3, -1.5); (1, 4, 0.5) ] } );
      ("spectrum value off", spectrum, Engine.Singular_values [| 10.0; 4.1; 1.0 |]);
      ("spectrum length", spectrum, Engine.Singular_values [| 10.0; 4.0 |]);
      ( "bicluster membership",
        biclusters,
        Engine.Biclusters
          { clusters = [ ([| 1; 2; 9 |], [| 0; 4 |], 0.1); ([| 5; 6 |], [| 2; 3 |], 0.2) ] } );
      ( "bicluster count",
        biclusters,
        Engine.Biclusters { clusters = [ ([| 1; 2; 3 |], [| 0; 4 |], 0.1) ] } );
      ("enrichment extra term", enrichment, Engine.Enrichment [ (3, 0.001); (7, 0.04); (9, 0.02) ]);
      ("enrichment p off", enrichment, Engine.Enrichment [ (3, 0.002); (7, 0.04) ]);
      ( "overlap pair missing",
        overlaps,
        Engine.Overlaps { n_variants = 8; n_genes = 4; pairs = [ (0, 1, 12); (2, 0, 3) ] } );
      ( "overlap length off by one base",
        overlaps,
        Engine.Overlaps
          { n_variants = 8; n_genes = 4; pairs = [ (0, 1, 12); (2, 0, 4); (5, 3, 200) ] } );
      ( "overlap universe",
        overlaps,
        Engine.Overlaps
          { n_variants = 9; n_genes = 4; pairs = [ (0, 1, 12); (2, 0, 3); (5, 3, 200) ] } );
    ]
  in
  List.iter
    (fun (name, reference, bad) ->
      match Compare.compare_payload ~reference bad with
      | Compare.Divergent _ -> ()
      | Compare.Equivalent d -> Alcotest.failf "%s: passed with divergence %g" name d
      | Compare.Incomparable s -> Alcotest.failf "%s: incomparable (%s)" name s)
    broken

let test_kind_mismatch_incomparable () =
  match Compare.compare_payload ~reference:regression spectrum with
  | Compare.Incomparable _ -> ()
  | v -> Alcotest.failf "expected Incomparable, got divergence %g" (Compare.divergence v)

let test_cov_near_tie_forgiven () =
  (* The lowest-scoring pair flips identity across the top-fraction
     boundary but both sides' cutoffs agree: forgiven under [numeric],
     still flagged under [strict]. *)
  let a = Engine.Cov_pairs { n_genes = 5; top_pairs = [ (0, 1, 2.0); (0, 2, 0.5) ] } in
  let b = Engine.Cov_pairs { n_genes = 5; top_pairs = [ (0, 1, 2.0); (1, 2, 0.500000001) ] } in
  checkb "near-tie forgiven" true (equivalentb ~tol:Compare.numeric a b);
  let far = Engine.Cov_pairs { n_genes = 5; top_pairs = [ (0, 1, 2.0); (1, 2, 0.9) ] } in
  checkb "far-from-cutoff flagged" false (equivalentb ~tol:Compare.numeric a far)

let test_spectral_top_truncates () =
  let approx = Engine.Singular_values [| 10.2; 9.0 |] in
  checkb "approximate: 2%% on leading value, tail ignored" true
    (equivalentb ~tol:Compare.approximate spectrum approx);
  checkb "numeric profile still flags it" false (equivalentb ~tol:Compare.numeric spectrum approx)

let test_bicluster_order_insensitive () =
  let reordered =
    Engine.Biclusters
      { clusters = [ ([| 5; 6 |], [| 2; 3 |], 0.2); ([| 1; 2; 3 |], [| 0; 4 |], 0.1) ] }
  in
  checkb "reordered clusters equivalent" true (equivalentb biclusters reordered)

let test_enrichment_threshold_forgiveness () =
  let near = Engine.Enrichment [ (3, 0.001); (7, 0.04); (9, 0.0499999) ] in
  checkb "near-threshold orphan forgiven when cutoff known" true
    (equivalentb ~tol:Compare.numeric ~p_threshold:0.05 enrichment near);
  checkb "same orphan flagged without the cutoff" false
    (equivalentb ~tol:Compare.numeric enrichment near)

let test_nan_r2_skipped () =
  let nan_r2 = Engine.Regression { intercept = 1.5; coefficients = [| 0.25; -3.0; 7.5e-3 |]; r2 = Float.nan } in
  checkb "NaN R² skipped (Mahout)" true (equivalentb regression nan_r2);
  checkb "symmetric" true (equivalentb nan_r2 regression)

let test_fingerprint () =
  List.iter
    (fun p -> check Alcotest.string "self-equal" (Compare.fingerprint p) (Compare.fingerprint p))
    all_payloads;
  let tweaked = Engine.Regression { intercept = 1.5 +. epsilon_float; coefficients = [| 0.25; -3.0; 7.5e-3 |]; r2 = 0.87 } in
  checkb "one-ulp change changes the digest" true
    (Compare.fingerprint regression <> Compare.fingerprint tweaked)

(* --- classification --- *)

let test_classification_of_failures () =
  let name = function
    | Oracle.Match _ -> "match"
    | Oracle.Degraded_match _ -> "degraded"
    | Oracle.Mismatch _ -> "mismatch"
    | Oracle.Unsupported_cell -> "unsupported"
    | Oracle.Engine_failed _ -> "engine-failed"
    | Oracle.Reference_failed _ -> "reference-failed"
    | Oracle.Both_failed _ -> "both-failed"
  in
  let cls reference outcome = name (Oracle.classify ~reference outcome) in
  let ok = done_ regression in
  check Alcotest.string "match" "match" (cls ok (done_ regression));
  check Alcotest.string "errored is engine-failed" "engine-failed" (cls ok (Engine.Errored "boom"));
  check Alcotest.string "timeout is engine-failed" "engine-failed" (cls ok Engine.Timed_out);
  check Alcotest.string "oom is engine-failed" "engine-failed" (cls ok Engine.Out_of_memory);
  check Alcotest.string "unsupported cell" "unsupported" (cls ok Engine.Unsupported);
  check Alcotest.string "reference failed" "reference-failed" (cls Engine.Timed_out (done_ regression));
  check Alcotest.string "both failed" "both-failed" (cls (Engine.Errored "a") Engine.Timed_out);
  check Alcotest.string "kind mismatch is a mismatch" "mismatch" (cls ok (done_ spectrum));
  let degraded =
    Engine.Degraded (t0, { Engine.no_recovery with Engine.recovered_nodes = 1 }, regression)
  in
  check Alcotest.string "degraded-but-equal" "degraded" (cls ok degraded)

let test_unsupported_whitelist () =
  let whitelisted =
    List.concat_map
      (fun e ->
        List.filter_map
          (fun q ->
            if Oracle.whitelisted_unsupported ~engine:e.Engine.name q then
              Some (e.Engine.name, Query.name q)
            else None)
          Query.all)
      Harness.single_node_engines
  in
  Alcotest.(check (list (pair string string)))
    "exactly the paper's support-matrix holes"
    [
      ("Postgres + Madlib", "biclustering");
      ("Hadoop", "biclustering");
      ("Hadoop", "statistics");
    ]
    whitelisted

(* --- tiny grids --- *)

let tiny_config =
  {
    Matrix.spec = Spec.custom ~genes:40 ~patients:110;
    seeds = Matrix.seeds_from ~base:0xC0FFEEL 2;
    timeout_s = 60.;
    fuzz = true;
    progress = None;
  }

let test_differential_tiny () =
  let cells = Matrix.differential tiny_config in
  checkb "grid is non-trivial" true (List.length cells >= 60);
  (match Matrix.mismatches cells with
  | [] -> ()
  | cs -> Alcotest.failf "mismatches:\n%s" (Matrix.summary cs));
  (* every single-node engine (minus the reference) must appear *)
  List.iter
    (fun e ->
      if e.Engine.name <> Oracle.reference.Engine.name then
        checkb (e.Engine.name ^ " present") true
          (List.exists (fun c -> c.Matrix.engine = e.Engine.name) cells))
    Harness.single_node_engines;
  (* and something must have actually matched *)
  checkb "matches exist" true
    (List.exists (fun c -> match c.Matrix.classification with Oracle.Match _ -> true | _ -> false) cells)

let test_chaos_conformance_tiny () =
  let config = { tiny_config with Matrix.seeds = [ 0xC0FFEEL ]; fuzz = false } in
  let cells = Matrix.chaos_conformance ~node_counts:[ 2 ] config in
  check Alcotest.int "5 armed engines + Xeon Phi, x 6 queries" 36
    (List.length cells);
  match Matrix.mismatches cells with
  | [] -> ()
  | cs -> Alcotest.failf "chaos mismatches:\n%s" (Matrix.summary cs)

let test_targeted_crash_degraded_match () =
  let ds = Dataset.generate ~seed:7L (Spec.custom ~genes:40 ~patients:110) in
  let clean = Genbase.Engine_multinode.pbdr ~nodes:2 () in
  let fault = Fault.of_events [ Fault.Node_crash { node = 0; superstep = 0 } ] in
  let armed = Genbase.Engine_multinode.pbdr ~fault ~nodes:2 () in
  let reference = Engine.run clean ds Query.Q1_regression ~timeout_s:60. () in
  let outcome = Engine.run armed ds Query.Q1_regression ~timeout_s:60. () in
  match Oracle.classify ~tol:Compare.numeric ~reference outcome with
  | Oracle.Degraded_match { divergence; recovery } ->
    check (Alcotest.float 0.) "recovery is bit-identical" 0. divergence;
    checkb "a node was recovered" true (recovery.Engine.recovered_nodes >= 1)
  | c -> Alcotest.failf "expected Degraded_match, got %s" (Oracle.describe c)

(* --- Q6 differential: every engine against the Vanilla-R nested-loop
   oracle. The overlap join is integer-exact, so beyond Oracle.Match we
   demand the payload *fingerprints* agree bitwise — the acceptance
   criterion for the query family. *)

let test_q6_differential_three_seeds () =
  let sizes =
    [
      ("q6-small", Spec.custom ~genes:60 ~patients:160);
      ("q6-medium", Spec.custom ~genes:200 ~patients:500);
    ]
  in
  let seeds = [ 0xC0FFEEL; 0xBEEFL; 42L ] in
  List.iter
    (fun (label, spec) ->
      List.iter
        (fun seed ->
          let ds = Dataset.generate ~seed spec in
          let reference =
            Engine.run Oracle.reference ds Query.Q6_overlap ~timeout_s:60. ()
          in
          let ref_digest =
            match Engine.payload_of reference with
            | Some p -> Compare.fingerprint p
            | None -> Alcotest.fail "oracle failed on Q6"
          in
          List.iter
            (fun e ->
              if e.Engine.name <> Oracle.reference.Engine.name then begin
                let cell =
                  Printf.sprintf "%s/%s/%Ld" e.Engine.name label seed
                in
                let outcome =
                  Engine.run e ds Query.Q6_overlap ~timeout_s:60. ()
                in
                (match Oracle.classify ~reference outcome with
                | Oracle.Match { divergence } ->
                  check (Alcotest.float 0.) (cell ^ " zero divergence") 0.
                    divergence
                | c -> Alcotest.failf "%s: %s" cell (Oracle.describe c));
                match Engine.payload_of outcome with
                | Some p ->
                  check Alcotest.string (cell ^ " digest bitwise") ref_digest
                    (Compare.fingerprint p)
                | None -> Alcotest.failf "%s: no payload" cell
              end)
            Harness.single_node_engines)
        seeds)
    sizes

let test_q6_crash_degraded_match () =
  (* The Q6 chaos requirement: a node crash on the shuffle-by-bin plan
     must recover to the *bit-identical* pair list. *)
  let ds = Dataset.generate ~seed:7L (Spec.custom ~genes:40 ~patients:110) in
  let clean = Genbase.Engine_multinode.pbdr ~nodes:2 () in
  let fault = Fault.of_events [ Fault.Node_crash { node = 0; superstep = 0 } ] in
  let armed = Genbase.Engine_multinode.pbdr ~fault ~nodes:2 () in
  let reference = Engine.run clean ds Query.Q6_overlap ~timeout_s:60. () in
  let outcome = Engine.run armed ds Query.Q6_overlap ~timeout_s:60. () in
  match Oracle.classify ~reference outcome with
  | Oracle.Degraded_match { divergence; recovery } ->
    check (Alcotest.float 0.) "recovery is bit-identical" 0. divergence;
    checkb "a node was recovered" true (recovery.Engine.recovered_nodes >= 1)
  | c -> Alcotest.failf "expected Degraded_match, got %s" (Oracle.describe c)

let test_render_and_csv () =
  let cell classification =
    { Matrix.engine = "Fake engine"; nodes = 1; query = Query.Q1_regression;
      seed = 1L; fuzzed = false; payload = ""; classification }
  in
  let ok = cell (Oracle.Match { divergence = 1e-12 }) in
  let bad = cell (Oracle.Mismatch { divergence = 0.5; detail = "with, comma" }) in
  let rendered = Matrix.render [ ok; bad ] in
  checkb "render names the engine" true
    (contains rendered "Fake engine");
  let csv = Matrix.to_csv [ ok; bad ] in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check Alcotest.int "header + one line per cell" 3 (List.length lines);
  check Alcotest.string "header"
    "engine,nodes,query,seed,fuzzed,payload,status,divergence,detail"
    (List.hd lines);
  checkb "detail commas escaped" true
    (List.for_all (fun l -> List.length (String.split_on_char ',' l) = 9) lines);
  checkb "mismatch breaks conformance" false (Matrix.conforming [ ok; bad ]);
  checkb "summary flags it" true (contains (Matrix.summary [ ok; bad ]) "MISMATCH");
  checkb "clean grid conforms" true (Matrix.conforming [ ok ])

(* A degraded match's CSV line carries only what the fault plan fixes:
   wasted seconds and speculative restarts come from measured wall time
   and must not make two runs' CSVs differ. *)
let test_csv_degraded_deterministic () =
  let cell wasted_s speculative =
    { Matrix.engine = "Hadoop"; nodes = 2; query = Query.Q4_svd; seed = 1L;
      fuzzed = false; payload = "singular_values";
      classification =
        Oracle.Degraded_match
          { divergence = 1e-9;
            recovery =
              { Engine.retries = 2; recovered_nodes = 1; speculative; wasted_s } } }
  in
  let a = Matrix.to_csv [ cell 0.164 0 ] and b = Matrix.to_csv [ cell 0.162 3 ] in
  check Alcotest.string "same line" a b;
  checkb "retries and recovered nodes written" true
    (contains a "retries=2 recovered=1")

(* --- seed stability ---

   Two in-process generations must be bit-identical, and the digests must
   also match golden values recorded from an earlier build — catching
   nondeterminism *across* process runs (hash-order dependence,
   environment leakage) that a single-process comparison cannot see. *)

(* Updated when Q6 added the variants table: the dataset fingerprint now
   covers it (new PRNG stream split after all pre-existing ones, so the
   Q1-Q5 payload digests below are unchanged). *)
let golden_dataset_digest = "9a964c724380924915d339638202d796"

let golden_payload_digests =
  [
    (Query.Q1_regression, "af15a8c482aed53b89938ecd08b9c8a4");
    (Query.Q2_covariance, "92ca555aa6e4243bb6f2a30c7badf16b");
    (Query.Q3_biclustering, "e96073f0ddb3d6042a3d70c87dd9fa64");
    (Query.Q4_svd, "e6879df03cae5024eecc5e88a5b6e0bb");
    (Query.Q5_statistics, "a62957e4354b78aa016c0d7eb991d53d");
    (Query.Q6_overlap, "348b591b6137ad3af3473e36bd0c6d4b");
  ]

let test_seed_stability () =
  let spec = Spec.custom ~genes:60 ~patients:160 in
  let ds1 = Dataset.generate ~seed:0x5EEDL spec in
  let ds2 = Dataset.generate ~seed:0x5EEDL spec in
  check Alcotest.string "dataset bit-identical across generations"
    (Transform.dataset_fingerprint ds1) (Transform.dataset_fingerprint ds2);
  check Alcotest.string "dataset digest matches golden" golden_dataset_digest
    (Transform.dataset_fingerprint ds1);
  List.iter
    (fun (q, golden) ->
      let payload ds =
        match Engine.payload_of (Engine.run Oracle.reference ds q ~timeout_s:60. ()) with
        | Some p -> Compare.fingerprint p
        | None -> Alcotest.failf "reference failed on %s" (Query.name q)
      in
      let p1 = payload ds1 in
      check Alcotest.string (Query.name q ^ " bit-identical across runs") p1 (payload ds2);
      check Alcotest.string (Query.name q ^ " digest matches golden") golden p1)
    golden_payload_digests

(* --- metamorphic properties (no oracle needed) --- *)

let payload_exn e ds q params =
  match Engine.payload_of (Engine.run e ds q ~params ~timeout_s:60. ()) with
  | Some p -> p
  | None -> QCheck.Test.fail_reportf "%s did not complete %s" e.Engine.name (Query.name q)

let reference = Oracle.reference

let gen_case = QCheck.Gen.(triple Genqc.seed_gen Genqc.seed_gen Genqc.spec_gen)

let arb_case =
  QCheck.make
    ~print:(fun (dseed, pseed, spec) ->
      Printf.sprintf "data seed %Ld, perm seed %Ld, %dx%d" dseed pseed
        spec.Spec.genes spec.Spec.patients)
    gen_case

let invariance_prop name query ~params ?p_threshold ?fixed_prefix_of count =
  QCheck.Test.make ~name ~count arb_case (fun (dseed, pseed, spec) ->
      let ds = Dataset.generate ~seed:dseed spec in
      (* A tiny random dataset can be degenerate for the query (e.g. the
         disease filter leaving < 2 patients for covariance); if even
         the reference cannot complete on the unpermuted data there is
         no answer whose invariance could be checked — discard. *)
      QCheck.assume
        (Engine.payload_of (Engine.run reference ds query ~params ~timeout_s:60. ())
        <> None);
      let fixed_prefix =
        match fixed_prefix_of with None -> 0 | Some f -> f ds
      in
      let ds' = Transform.shuffle_patients ~fixed_prefix ~seed:pseed ds in
      let p = payload_exn reference ds query params in
      let p' = payload_exn reference ds' query params in
      match Compare.compare_payload ~tol:Compare.numeric ?p_threshold ~reference:p p' with
      | Compare.Equivalent _ -> true
      | v ->
        QCheck.Test.fail_reportf "%s moved under patient permutation: %s"
          (Query.name query)
          (match v with
          | Compare.Divergent { detail; _ } -> detail
          | Compare.Incomparable s -> s
          | Compare.Equivalent _ -> assert false))

let prop_q1_invariant =
  invariance_prop "Q1 invariant under patient permutation" Query.Q1_regression
    ~params:dflt 15

let prop_q2_invariant =
  invariance_prop "Q2 invariant under patient permutation" Query.Q2_covariance
    ~params:dflt 15

let prop_q4_invariant =
  invariance_prop "Q4 singular values invariant under row shuffle" Query.Q4_svd
    ~params:dflt 15

let prop_q5_full_sample_invariant =
  let params = { dflt with Query.sample_fraction = 1.0 } in
  invariance_prop "Q5 invariant under permutation (full sample)"
    Query.Q5_statistics ~params ~p_threshold:params.Query.p_threshold 10

let prop_q5_prefix_invariant =
  (* Default sampling takes the first-k patient ids; a prefix-preserving
     shuffle keeps the sampled *set* intact, so the answer must not move. *)
  let params = dflt in
  invariance_prop "Q5 invariant under sample-preserving shuffle"
    Query.Q5_statistics ~params ~p_threshold:params.Query.p_threshold
    ~fixed_prefix_of:(fun ds ->
      Array.length (Genbase.Qcommon.sampled_patients ds params.Query.sample_fraction))
    10

let prop_q5_threshold_monotone =
  QCheck.Test.make ~name:"Q5 hit set monotone in p_threshold" ~count:15
    QCheck.(
      make
        ~print:(fun (s, spec, (a, b)) ->
          Printf.sprintf "seed %Ld, %dx%d, thresholds %g/%g" s spec.Spec.genes
            spec.Spec.patients a b)
        Gen.(
          triple Genqc.seed_gen Genqc.spec_gen
            (pair (float_range 0.005 0.1) (float_range 0.005 0.1))))
    (fun (dseed, spec, (a, b)) ->
      let lo = Float.min a b and hi = Float.max a b in
      let ds = Dataset.generate ~seed:dseed spec in
      let run thr =
        match payload_exn reference ds Query.Q5_statistics { dflt with Query.p_threshold = thr } with
        | Engine.Enrichment terms -> terms
        | _ -> QCheck.Test.fail_report "Q5 returned a non-enrichment payload"
      in
      let terms_lo = run lo and terms_hi = run hi in
      List.length terms_lo <= List.length terms_hi
      && List.for_all
           (fun (go, p) ->
             match List.assoc_opt go terms_hi with
             | Some p' -> p = p'
             | None ->
               QCheck.Test.fail_reportf
                 "GO %d (p=%g) significant at %g but not at looser %g" go p lo hi)
           terms_lo)

(* --- comparator / generator properties --- *)

let payload_gen =
  let open QCheck.Gen in
  let score = float_range (-5.) 5. in
  oneof
    [
      ( float_range (-2.) 2. >>= fun intercept ->
        array_size (int_range 1 8) score >>= fun coefficients ->
        float_range 0. 1. >|= fun r2 -> Engine.Regression { intercept; coefficients; r2 } );
      ( int_range 2 30 >>= fun n_genes ->
        list_size (int_range 0 12)
          (triple (int_range 0 29) (int_range 0 29) score)
        >|= fun top_pairs -> Engine.Cov_pairs { n_genes; top_pairs } );
      ( array_size (int_range 1 10) (float_range 0.1 10.) >|= fun s ->
        Array.sort (fun a b -> compare b a) s;
        Engine.Singular_values s );
      ( list_size (int_range 0 4)
          (triple
             (array_size (int_range 1 6) (int_range 0 40))
             (array_size (int_range 1 6) (int_range 0 40))
             (float_range 0. 2.))
        >|= fun clusters -> Engine.Biclusters { clusters } );
      ( list_size (int_range 0 8) (pair (int_range 0 50) (float_range 1e-6 0.04))
        >|= fun e -> Engine.Enrichment e );
      ( int_range 1 40 >>= fun n_variants ->
        int_range 1 20 >>= fun n_genes ->
        list_size (int_range 0 12)
          (triple (int_range 0 39) (int_range 0 19) (int_range 1 500))
        >|= fun pairs ->
        (* Canonicalize so the reflexivity property sees a well-formed
           payload (engines always emit the canonical order). *)
        List.sort_uniq compare pairs |> fun pairs ->
        Engine.Overlaps { n_variants; n_genes; pairs } );
    ]

let arb_payload = QCheck.make ~print:Engine.payload_kind payload_gen

let prop_comparator_reflexive =
  QCheck.Test.make ~name:"comparator is reflexive" ~count:100 arb_payload
    (fun p ->
      match Compare.compare_payload ~reference:p p with
      | Compare.Equivalent d -> d = 0.
      | _ -> false)

(* A perturbation large enough to matter, per payload kind. *)
let perturb = function
  | Engine.Regression r -> Engine.Regression { r with intercept = r.intercept +. 1. }
  | Engine.Cov_pairs c -> Engine.Cov_pairs { c with n_genes = c.n_genes + 1 }
  | Engine.Singular_values s ->
    if Array.length s = 0 then Engine.Singular_values [| 1. |]
    else begin
      let s' = Array.copy s in
      s'.(0) <- (s'.(0) *. 1.5) +. 1.;
      Engine.Singular_values s'
    end
  | Engine.Biclusters b ->
    Engine.Biclusters { clusters = ([| 0 |], [| 0 |], 0.) :: b.clusters }
  | Engine.Enrichment e -> Engine.Enrichment ((999, 0.2) :: e)
  | Engine.Overlaps o ->
    Engine.Overlaps { o with pairs = (0, 0, 1) :: o.pairs }

let prop_perturbation_detected =
  QCheck.Test.make ~name:"gross perturbation always detected" ~count:100
    arb_payload (fun p ->
      not
        (Compare.equivalent (Compare.compare_payload ~reference:p (perturb p))))

let prop_generators_well_posed =
  QCheck.Test.make ~name:"generated specs and params stay in range" ~count:200
    QCheck.(pair Genqc.arb_spec Genqc.arb_params)
    (fun (spec, p) ->
      spec.Spec.patients >= 2 * spec.Spec.genes
      && p.Query.func_threshold >= 150
      && p.Query.func_threshold <= 400
      && p.Query.cov_top_fraction >= 0.05
      && p.Query.cov_top_fraction <= 0.20
      && p.Query.svd_k >= 5 && p.Query.svd_k <= 40
      && p.Query.sample_fraction >= 0.05
      && p.Query.sample_fraction <= 0.25
      && p.Query.p_threshold >= 0.01
      && p.Query.p_threshold <= 0.10
      && p.Query.gender = dflt.Query.gender)

let prop_params_of_seed_deterministic =
  QCheck.Test.make ~name:"params_of_seed is a pure function" ~count:50
    Genqc.arb_seed (fun seed ->
      Genqc.params_of_seed seed = Genqc.params_of_seed seed)

let prop_differential_fuzzed =
  (* One-cell differential checks on fuzzed parameters: SciDB shares the
     reference kernels through an array store, so every query must match
     under its per-query tolerance. *)
  QCheck.Test.make ~name:"SciDB matches the reference on fuzzed cells" ~count:8
    QCheck.(
      make
        ~print:(fun (s, spec, p) ->
          Printf.sprintf "seed %Ld, %dx%d, %s" s spec.Spec.genes
            spec.Spec.patients (Genqc.print_params p))
        Gen.(triple Genqc.seed_gen Genqc.spec_gen Genqc.params_gen))
    (fun (dseed, spec, params) ->
      let ds = Dataset.generate ~seed:dseed spec in
      let e = Genbase.Engine_scidb.engine in
      List.for_all
        (fun q ->
          let reference = Engine.run Oracle.reference ds q ~params ~timeout_s:60. () in
          let outcome = Engine.run e ds q ~params ~timeout_s:60. () in
          let tol = Oracle.tolerance_for ~engine:e.Engine.name q in
          match
            Oracle.classify ~tol ~p_threshold:params.Query.p_threshold ~reference outcome
          with
          | Oracle.Match _ -> true
          (* A fuzzed parameter set can select a degenerate cohort (e.g.
             under two patients for covariance); when BOTH sides refuse
             identically the cell is vacuous, as in Matrix.mismatches. *)
          | Oracle.Both_failed _ -> true
          | c ->
            QCheck.Test.fail_reportf "%s / %s: %s" (Query.name q)
              (Genqc.print_params params) (Oracle.describe c))
        Query.all)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_q1_invariant;
      prop_q2_invariant;
      prop_q4_invariant;
      prop_q5_full_sample_invariant;
      prop_q5_prefix_invariant;
      prop_q5_threshold_monotone;
      prop_comparator_reflexive;
      prop_perturbation_detected;
      prop_generators_well_posed;
      prop_params_of_seed_deterministic;
      prop_differential_fuzzed;
    ]

let suite =
  [
    Alcotest.test_case "identical payloads equivalent" `Quick test_identical_equivalent;
    Alcotest.test_case "broken payloads detected" `Quick test_broken_payloads_detected;
    Alcotest.test_case "kind mismatch incomparable" `Quick test_kind_mismatch_incomparable;
    Alcotest.test_case "covariance near-tie forgiven" `Quick test_cov_near_tie_forgiven;
    Alcotest.test_case "spectral_top truncates comparison" `Quick test_spectral_top_truncates;
    Alcotest.test_case "bicluster order-insensitive" `Quick test_bicluster_order_insensitive;
    Alcotest.test_case "enrichment threshold forgiveness" `Quick test_enrichment_threshold_forgiveness;
    Alcotest.test_case "NaN R² skipped" `Quick test_nan_r2_skipped;
    Alcotest.test_case "fingerprint bit-exactness" `Quick test_fingerprint;
    Alcotest.test_case "failure classification" `Quick test_classification_of_failures;
    Alcotest.test_case "unsupported whitelist" `Quick test_unsupported_whitelist;
    Alcotest.test_case "differential grid (tiny)" `Slow test_differential_tiny;
    Alcotest.test_case "chaos conformance (tiny)" `Slow test_chaos_conformance_tiny;
    Alcotest.test_case "targeted crash degrades but matches" `Quick test_targeted_crash_degraded_match;
    Alcotest.test_case "Q6 differential (3 seeds, 2 sizes)" `Slow test_q6_differential_three_seeds;
    Alcotest.test_case "Q6 crash degrades but matches bitwise" `Quick test_q6_crash_degraded_match;
    Alcotest.test_case "render and CSV" `Quick test_render_and_csv;
    Alcotest.test_case "degraded CSV line deterministic" `Quick test_csv_degraded_deterministic;
    Alcotest.test_case "seed stability" `Slow test_seed_stability;
  ]
  @ props
