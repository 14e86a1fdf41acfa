open Gb_rlang
module Mat = Gb_linalg.Mat

let df () =
  Dataframe.of_columns
    [
      ("id", Dataframe.Ints [| 1; 2; 3; 4; 5 |]);
      ("grp", Dataframe.Ints [| 0; 1; 0; 1; 0 |]);
      ("v", Dataframe.Floats [| 10.; 20.; 30.; 40.; 50. |]);
      ("name", Dataframe.Strs [| "a"; "b"; "c"; "d"; "e" |]);
    ]

let test_shape () =
  let d = df () in
  Alcotest.(check int) "nrow" 5 (Dataframe.nrow d);
  Alcotest.(check int) "ncol" 4 (Dataframe.ncol d);
  Alcotest.(check (list string)) "names" [ "id"; "grp"; "v"; "name" ]
    (Dataframe.names d)

let test_ragged_rejected () =
  Alcotest.check_raises "ragged"
    (Invalid_argument "Dataframe.of_columns: ragged column b") (fun () ->
      ignore
        (Dataframe.of_columns
           [ ("a", Dataframe.Ints [| 1 |]); ("b", Dataframe.Ints [| 1; 2 |]) ]))

let test_accessors () =
  let d = df () in
  Alcotest.(check (array int)) "ints" [| 0; 1; 0; 1; 0 |] (Dataframe.ints d "grp");
  Alcotest.(check (array (float 0.))) "ints widened"
    [| 1.; 2.; 3.; 4.; 5. |]
    (Dataframe.floats d "id");
  Alcotest.check_raises "missing" (Invalid_argument "Dataframe: no column zz")
    (fun () -> ignore (Dataframe.column d "zz"))

let test_subset_which () =
  let d = df () in
  let grp = Dataframe.ints d "grp" in
  let zeros = Dataframe.subset d (fun _ i -> grp.(i) = 0) in
  Alcotest.(check int) "three rows" 3 (Dataframe.nrow zeros);
  Alcotest.(check (array int)) "ids" [| 1; 3; 5 |] (Dataframe.ints zeros "id");
  Alcotest.(check (array int)) "which" [| 0; 2; 4 |]
    (Dataframe.which d (fun _ i -> grp.(i) = 0))

let test_merge () =
  let x = df () in
  let y =
    Dataframe.of_columns
      [
        ("grp", Dataframe.Ints [| 0; 1 |]);
        ("label", Dataframe.Strs [| "zero"; "one" |]);
        ("v", Dataframe.Floats [| -1.; -2. |]);
      ]
  in
  let m = Dataframe.merge x y ~by:"grp" in
  Alcotest.(check int) "all rows match" 5 (Dataframe.nrow m);
  Alcotest.(check (list string)) "suffix on clash"
    [ "id"; "grp"; "v"; "name"; "label"; "v.y" ]
    (Dataframe.names m);
  let labels =
    match Dataframe.column m "label" with
    | Dataframe.Strs s -> s
    | _ -> Alcotest.fail "label type"
  in
  Alcotest.(check string) "joined value" "zero" labels.(0);
  Alcotest.(check string) "joined value" "one" labels.(1)

let test_merge_inner_semantics () =
  let x =
    Dataframe.of_columns [ ("k", Dataframe.Ints [| 1; 2; 2; 9 |]) ]
  in
  let y =
    Dataframe.of_columns
      [ ("k", Dataframe.Ints [| 2; 2; 3 |]); ("w", Dataframe.Ints [| 7; 8; 0 |]) ]
  in
  let m = Dataframe.merge x y ~by:"k" in
  (* keys 2,2 on the left each match 2 rows on the right: 4 rows. *)
  Alcotest.(check int) "cross product within key" 4 (Dataframe.nrow m)

let test_order_by () =
  let d =
    Dataframe.of_columns
      [ ("x", Dataframe.Floats [| 3.; 1.; 2. |]); ("tag", Dataframe.Ints [| 30; 10; 20 |]) ]
  in
  let o = Dataframe.order_by d "x" in
  Alcotest.(check (array int)) "reordered" [| 10; 20; 30 |]
    (Dataframe.ints o "tag")

let test_aggregate_mean () =
  let d = df () in
  let agg = Dataframe.aggregate_mean d ~by:"grp" ~value:"v" in
  Alcotest.(check int) "two groups" 2 (Dataframe.nrow agg);
  Alcotest.(check (array int)) "keys sorted" [| 0; 1 |] (Dataframe.ints agg "grp");
  Alcotest.(check (array (float 1e-12))) "means" [| 30.; 30. |]
    (Dataframe.floats agg "v")

let test_matrix_roundtrip () =
  let m = Mat.random (Gb_util.Prng.create 1L) 6 4 in
  let d = Dataframe.of_matrix m in
  Alcotest.(check int) "columns" 4 (Dataframe.ncol d);
  let back = Dataframe.to_matrix d ~cols:(Dataframe.names d) in
  Alcotest.(check bool) "roundtrip" (Mat.equal m back) true;
  (* Column subsets reorder. *)
  let sub = Dataframe.to_matrix d ~cols:[ "V3"; "V0" ] in
  Alcotest.(check (float 0.)) "reordered" (Mat.get m 2 3) (Mat.get sub 2 0)

let suite =
  [
    ("shape", `Quick, test_shape);
    ("ragged rejected", `Quick, test_ragged_rejected);
    ("accessors", `Quick, test_accessors);
    ("subset/which", `Quick, test_subset_which);
    ("merge", `Quick, test_merge);
    ("merge inner semantics", `Quick, test_merge_inner_semantics);
    ("order by", `Quick, test_order_by);
    ("aggregate mean", `Quick, test_aggregate_mean);
    ("matrix roundtrip", `Quick, test_matrix_roundtrip);
  ]

