(* The relational DM plans must produce exactly the selections the direct
   (array-based) reference computes. *)

open Genbase
module Mat = Gb_linalg.Mat
module G = Gb_datagen.Generate

let ds = Dataset.generate (Gb_datagen.Spec.custom ~genes:50 ~patients:90)
let params = Query.default_params

let db () = Engine_sql.make_db Engine_sql.Col_backend ds ~check:(fun () -> ())
let db_row () = Engine_sql.make_db Engine_sql.Row_backend ds ~check:(fun () -> ())

let test_q1_dm_matches_reference () =
  let x, y, gene_ids = Relops.q1_dm (db ()) params in
  let expected_genes = Qcommon.genes_with_func_below ds params.func_threshold in
  Alcotest.(check (array int)) "selected genes" expected_genes gene_ids;
  let expected_x = Mat.sub_cols ds.G.expression expected_genes in
  Alcotest.(check bool) "matrix" (Mat.equal expected_x x) true;
  Array.iteri
    (fun i (p : G.patient) ->
      Alcotest.(check (float 1e-12)) "response aligned" p.drug_response y.(i))
    ds.G.patients

let test_q1_row_and_col_agree () =
  let x1, y1, g1 = Relops.q1_dm (db ()) params in
  let x2, y2, g2 = Relops.q1_dm (db_row ()) params in
  Alcotest.(check bool) "matrices equal" (Mat.equal x1 x2) true;
  Alcotest.(check (array int)) "genes equal" g1 g2;
  Alcotest.(check bool) "responses equal" (y1 = y2) true

let test_q2_dm_matches_reference () =
  (* Pick a disease that certainly has patients in this tiny cohort. *)
  let disease = ds.G.patients.(0).G.disease_id in
  let params = { params with Query.disease_id = disease } in
  let m, gene_ids = Relops.q2_dm (db ()) params in
  let pat = Qcommon.patients_with_disease ds disease in
  Alcotest.(check int) "rows = cohort" (Array.length pat) (fst (Mat.dims m));
  Alcotest.(check int) "all genes" 50 (Array.length gene_ids);
  let expected = Mat.sub_rows ds.G.expression pat in
  Alcotest.(check bool) "matrix" (Mat.equal expected m) true

let test_q3_dm_matches_reference () =
  let m = Relops.q3_dm (db ()) params in
  let pat =
    Qcommon.patients_by_age_gender ds ~max_age:params.max_age
      ~gender:params.gender
  in
  let expected = Mat.sub_rows ds.G.expression pat in
  Alcotest.(check bool) "matrix" (Mat.equal expected m) true

let test_q4_dm_matches_reference () =
  let x, gene_ids = Relops.q4_dm (db ()) params in
  let expected_genes = Qcommon.genes_with_func_below ds params.func_threshold in
  Alcotest.(check (array int)) "genes" expected_genes gene_ids;
  Alcotest.(check bool) "matrix"
    (Mat.equal (Mat.sub_cols ds.G.expression expected_genes) x)
    true

let test_q5_dm_matches_reference () =
  let scores, go_pairs =
    Relops.q5_dm (db ()) params ~n_patients:(Array.length ds.G.patients)
  in
  let sample = Qcommon.sampled_patients ds params.sample_fraction in
  let expected =
    Qcommon.enrichment_scores (Mat.sub_rows ds.G.expression sample)
  in
  Alcotest.(check int) "score per gene" 50 (Array.length scores);
  Array.iteri
    (fun g s -> Alcotest.(check (float 1e-9)) "score" expected.(g) s)
    scores;
  Alcotest.(check int) "go pairs" (Array.length ds.G.go) (Array.length go_pairs)

let test_q2_join_metadata_count () =
  let n =
    Relops.q2_join_metadata (db ()) [ (0, 1, 0.5); (2, 3, -0.5); (4, 0, 1.0) ]
  in
  Alcotest.(check int) "every pair joins its gene row" 3 n

let backends =
  [ ("row", Engine_sql.Row_backend); ("col", Engine_sql.Col_backend) ]

let test_q5_guard_timeout () =
  let check () = raise Gb_util.Deadline.Timeout in
  let db = Engine_sql.make_db Engine_sql.Col_backend ds ~check in
  Alcotest.check_raises "guard propagates" Gb_util.Deadline.Timeout (fun () ->
      ignore (Relops.q1_dm db params));
  (* A semi-join whose build side keeps no gene yields no microarray row,
     yet its scan reads all 50 x 90 tuples: the deadline check and the
     scan span count tuples read, not rows kept. *)
  let none = { params with Query.func_threshold = min_int } in
  let tuples = 50 * 90 in
  List.iter
    (fun (name, backend) ->
      let calls = ref 0 in
      let db = Engine_sql.make_db backend ds ~check:(fun () -> incr calls) in
      let module Obs = Gb_obs.Obs in
      Obs.set_enabled true;
      let _, _, genes =
        Fun.protect
          ~finally:(fun () -> Obs.set_enabled false)
          (fun () -> Relops.q1_dm db none)
      in
      let scan_rows =
        List.filter_map
          (function
            | Obs.Span_ev s when s.Obs.name = "scan:microarray" ->
              List.assoc_opt "rows" s.Obs.attrs
            | _ -> None)
          (Obs.events ())
      in
      Obs.reset ();
      Alcotest.(check int) (name ^ ": no gene joins") 0 (Array.length genes);
      Alcotest.(check int)
        (name ^ ": one check per 4096 tuples read")
        (tuples / 4096) !calls;
      Alcotest.(check bool)
        (name ^ ": scan span counts tuples read")
        true
        (scan_rows = [ Obs.Int tuples ]);
      let db = Engine_sql.make_db backend ds ~check in
      Alcotest.check_raises (name ^ ": guard propagates from an empty semi-join")
        Gb_util.Deadline.Timeout (fun () -> ignore (Relops.q1_dm db none)))
    backends

(* Bit patterns, so that equal means bitwise equal. *)
let bits m = Array.map (Array.map Int64.bits_of_float) (Mat.to_arrays m)

(* The DM of Q1-Q4 through the semi-join equals the same plans over
   scans that ignore the key test, bitwise, on both stores. *)
let prop_semi_join_matches_plain_scans =
  let gen =
    QCheck.Gen.(
      quad (int_range (-10) 1100) (int_range 0 12) (int_range 10 100)
        (int_range 0 2))
  in
  QCheck.Test.make ~name:"Q1-Q4 DM: semi-join = plain scans, bitwise"
    ~count:25 (QCheck.make gen) (fun (func, disease, age, gender) ->
      let p =
        {
          params with
          Query.func_threshold = func;
          disease_id = disease;
          max_age = age;
          gender;
        }
      in
      List.for_all
        (fun (_, backend) ->
          let keyed = ref 0 in
          let base = Engine_sql.make_db backend ds ~check:ignore in
          let semi =
            {
              base with
              Relops.scan =
                (fun ?keep t cols ->
                  if keep <> None then incr keyed;
                  base.Relops.scan ?keep t cols);
            }
          in
          let plain =
            { base with Relops.scan = (fun ?keep:_ t cols -> base.Relops.scan t cols) }
          in
          let q1 db =
            let x, y, g = Relops.q1_dm db p in
            (bits x, Array.map Int64.bits_of_float y, g)
          in
          let q2 db = let m, g = Relops.q2_dm db p in (bits m, g) in
          let q3 db = bits (Relops.q3_dm db p) in
          let q4 db = let x, g = Relops.q4_dm db p in (bits x, g) in
          let same = q1 semi = q1 plain && q2 semi = q2 plain
                     && q3 semi = q3 plain && q4 semi = q4 plain in
          same && !keyed = 4)
        backends)

let suite =
  [
    ("q1 dm matches reference", `Quick, test_q1_dm_matches_reference);
    ("q1 row/col stores agree", `Quick, test_q1_row_and_col_agree);
    ("q2 dm matches reference", `Quick, test_q2_dm_matches_reference);
    ("q3 dm matches reference", `Quick, test_q3_dm_matches_reference);
    ("q4 dm matches reference", `Quick, test_q4_dm_matches_reference);
    ("q5 dm matches reference", `Quick, test_q5_dm_matches_reference);
    ("q2 metadata join count", `Quick, test_q2_join_metadata_count);
    ("guard propagates timeout", `Quick, test_q5_guard_timeout);
    QCheck_alcotest.to_alcotest prop_semi_join_matches_plain_scans;
  ]
