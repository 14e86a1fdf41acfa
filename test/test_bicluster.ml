open Gb_bicluster
module Mat = Gb_linalg.Mat

let test_msr_constant_zero () =
  let m = Mat.init 10 10 (fun _ _ -> 3.7) in
  Alcotest.(check (float 1e-12)) "constant block" 0.
    (Cheng_church.mean_squared_residue m
       (Array.init 10 Fun.id) (Array.init 10 Fun.id))

let test_msr_additive_zero () =
  (* a_ij = r_i + c_j has zero residue by construction. *)
  let m = Mat.init 8 6 (fun i j -> float_of_int i +. (2. *. float_of_int j)) in
  Alcotest.(check (float 1e-12)) "additive block" 0.
    (Cheng_church.mean_squared_residue m
       (Array.init 8 Fun.id) (Array.init 6 Fun.id))

let test_msr_random_positive () =
  let m = Mat.random (Gb_util.Prng.create 5L) 10 10 in
  Alcotest.(check bool) "noisy block has residue"
    (Cheng_church.mean_squared_residue m
       (Array.init 10 Fun.id) (Array.init 10 Fun.id)
    > 0.1)
    true

let test_msr_submatrix () =
  let m = Mat.random (Gb_util.Prng.create 6L) 10 10 in
  (* Plant a constant 3x3 block. *)
  List.iter
    (fun (i, j) -> Mat.set m i j 9.)
    [ (1,2); (1,5); (1,7); (4,2); (4,5); (4,7); (8,2); (8,5); (8,7) ];
  Alcotest.(check (float 1e-12)) "planted submatrix" 0.
    (Cheng_church.mean_squared_residue m [| 1; 4; 8 |] [| 2; 5; 7 |])

(* A dominant additive block: the greedy Cheng-Church deletion recovers a
   planted bicluster reliably when it spans a majority of the matrix (for
   small planted blocks the greedy path may settle on another low-residue
   region, which is a known property of the algorithm). *)
let planted_matrix () =
  let g = Gb_util.Prng.create 77L in
  let m = Mat.random g 60 50 in
  let rows = Array.init 40 Fun.id in
  let cols = Array.init 30 Fun.id in
  let reff = Array.map (fun _ -> Gb_util.Prng.normal g) rows in
  let ceff = Array.map (fun _ -> Gb_util.Prng.normal g) cols in
  Array.iteri
    (fun ri i ->
      Array.iteri
        (fun ci j -> Mat.set m i j (2. +. reff.(ri) +. ceff.(ci)))
        cols)
    rows;
  (m, rows, cols)

let test_finds_planted_bicluster () =
  let m, rows, cols = planted_matrix () in
  let config =
    { Cheng_church.default_config with delta = 0.01; n_clusters = 1 }
  in
  match Cheng_church.run ~config m with
  | [] -> Alcotest.fail "no bicluster found"
  | b :: _ ->
    Alcotest.(check bool) "low residue" (b.Cheng_church.msr <= 0.01) true;
    let overlap planted found =
      let f = Array.to_list found in
      List.length (List.filter (fun r -> List.mem r f) (Array.to_list planted))
    in
    (* Most of the planted rows/cols should be recovered. *)
    Alcotest.(check bool) "row recall"
      (overlap rows b.Cheng_church.rows >= 35)
      true;
    Alcotest.(check bool) "col recall"
      (overlap cols b.Cheng_church.cols >= 27)
      true

let test_respects_minimums () =
  let m = Mat.random (Gb_util.Prng.create 12L) 30 30 in
  let config =
    { Cheng_church.default_config with delta = 0.001; n_clusters = 2 }
  in
  List.iter
    (fun b ->
      Alcotest.(check bool) "min rows"
        (Array.length b.Cheng_church.rows >= config.Cheng_church.min_rows)
        true;
      Alcotest.(check bool) "min cols"
        (Array.length b.Cheng_church.cols >= config.Cheng_church.min_cols)
        true)
    (Cheng_church.run ~config m)

let test_input_not_modified () =
  let m, _, _ = planted_matrix () in
  let before = Mat.copy m in
  ignore (Cheng_church.run m);
  Alcotest.(check bool) "unchanged" (Mat.equal before m) true

let test_deterministic () =
  let m, _, _ = planted_matrix () in
  let a = Cheng_church.run m and b = Cheng_church.run m in
  Alcotest.(check int) "same count" (List.length a) (List.length b);
  List.iter2
    (fun (x : Cheng_church.bicluster) (y : Cheng_church.bicluster) ->
      Alcotest.(check (array int)) "same rows" x.rows y.rows;
      Alcotest.(check (array int)) "same cols" x.cols y.cols)
    a b

let test_too_small_input () =
  let m = Mat.create 1 1 in
  Alcotest.(check int) "empty result" 0 (List.length (Cheng_church.run m))

let test_msr_decreases_with_deletion () =
  (* The returned bicluster's MSR must not exceed delta when any cluster is
     returned with the default config. *)
  let m, _, _ = planted_matrix () in
  let config = { Cheng_church.default_config with delta = 0.05 } in
  List.iter
    (fun b ->
      Alcotest.(check bool) "msr <= delta" (b.Cheng_church.msr <= 0.05) true)
    (Cheng_church.run ~config m)

(* Allocation budgets (see test_linalg's): one sweep allocates O(m + n)
   words, and a run makes O(m + n) sweeps per bicluster, so neither may
   grow with m n. A per-cell boxed accessor in the sweep overshoots both
   by well over 10x at this shape. *)
let test_alloc_budget () =
  let nr = 200 and nc = 150 in
  let m = Mat.random (Gb_util.Prng.create 3L) nr nc in
  let mn = float_of_int (nr + nc) in
  Test_linalg.check_budget "mean_squared_residue (one sweep)"
    ~budget:(8. *. mn) (fun () ->
      Cheng_church.mean_squared_residue m (Array.init nr Fun.id)
        (Array.init nc Fun.id));
  Test_linalg.check_budget "Cheng_church.run" ~budget:(16. *. mn *. mn)
    (fun () -> Cheng_church.run m)

let suite =
  [
    ("msr constant zero", `Quick, test_msr_constant_zero);
    ("msr additive zero", `Quick, test_msr_additive_zero);
    ("msr random positive", `Quick, test_msr_random_positive);
    ("msr submatrix", `Quick, test_msr_submatrix);
    ("finds planted bicluster", `Quick, test_finds_planted_bicluster);
    ("respects minimums", `Quick, test_respects_minimums);
    ("input not modified", `Quick, test_input_not_modified);
    ("deterministic", `Quick, test_deterministic);
    ("too small input", `Quick, test_too_small_input);
    ("msr below delta", `Quick, test_msr_decreases_with_deletion);
    ("alloc budget", `Quick, test_alloc_budget);
  ]
