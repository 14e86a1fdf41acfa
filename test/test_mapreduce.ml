open Gb_mapreduce
module Mat = Gb_linalg.Mat

let test_wordcount () =
  let mr = Mr.create ~job_overhead_s:0.01 () in
  let out =
    Mr.run_job mr ~name:"wordcount"
      ~mapper:(fun line ->
        String.split_on_char ' ' line |> List.map (fun w -> (w, "1")))
      ~reducer:(fun w counts -> [ Printf.sprintf "%s=%d" w (List.length counts) ])
      [ "a b a"; "b c" ]
  in
  Alcotest.(check (list string)) "counts" [ "a=2"; "b=2"; "c=1" ] out;
  Alcotest.(check int) "one job" 1 (Mr.jobs_run mr);
  Alcotest.(check bool) "overhead charged" (Mr.elapsed mr >= 0.01) true

let test_map_only () =
  let mr = Mr.create ~job_overhead_s:0.01 () in
  let out =
    Mr.map_only mr ~name:"upper"
      ~mapper:(fun l -> [ String.uppercase_ascii l ])
      [ "x"; "y" ]
  in
  Alcotest.(check (list string)) "mapped" [ "X"; "Y" ] out

let test_run_combine () =
  let mr = Mr.create ~job_overhead_s:0.01 () in
  let out =
    Mr.run_combine mr ~name:"sum" ~init:0
      ~fold:(fun acc line -> acc + int_of_string line)
      ~emit:(fun acc -> [ string_of_int acc ])
      [ "1"; "2"; "3" ]
  in
  Alcotest.(check (list string)) "combined" [ "6" ] out

let test_deadline () =
  let mr = Mr.create ~job_overhead_s:10. () in
  Mr.set_deadline mr 5.;
  ignore (Mr.map_only mr ~name:"first" ~mapper:(fun l -> [ l ]) [ "x" ]);
  Alcotest.check_raises "second job times out" Gb_util.Deadline.Timeout (fun () ->
      ignore (Mr.map_only mr ~name:"second" ~mapper:(fun l -> [ l ]) [ "x" ]))

let test_multinode_faster_compute () =
  let work input =
    List.concat_map
      (fun l -> List.init 200 (fun i -> Printf.sprintf "%s-%d" l i))
      input
  in
  let inputs = List.init 2000 string_of_int in
  let mr1 = Mr.create ~job_overhead_s:0. ~nodes:1 () in
  ignore (Mr.map_only mr1 ~name:"w" ~mapper:(fun l -> work [ l ]) inputs);
  let mr4 = Mr.create ~job_overhead_s:0. ~nodes:4 () in
  ignore (Mr.map_only mr4 ~name:"w" ~mapper:(fun l -> work [ l ]) inputs);
  Alcotest.(check bool) "4 nodes faster but not 4x"
    (Mr.elapsed mr4 < Mr.elapsed mr1)
    true

let test_hive_select_project () =
  let mr = Mr.create ~job_overhead_s:0. () in
  let t = [ "1,a,10"; "2,b,20"; "3,c,30" ] in
  let sel = Hive.select mr (fun f -> int_of_string f.(2) > 10) t in
  Alcotest.(check (list string)) "select" [ "2,b,20"; "3,c,30" ] sel;
  let proj = Hive.project mr [ 1 ] sel in
  Alcotest.(check (list string)) "project" [ "b"; "c" ] proj

let test_hive_join () =
  let mr = Mr.create ~job_overhead_s:0. () in
  let left = [ "1,x"; "2,y"; "1,z" ] in
  let right = [ "1,AA"; "3,CC" ] in
  let out =
    Hive.join mr ~left_key:0 ~right_key:0 left right
    |> List.sort compare
  in
  Alcotest.(check (list string)) "join" [ "1,x,AA"; "1,z,AA" ] out

let test_hive_aggregate_count () =
  let mr = Mr.create ~job_overhead_s:0. () in
  let t = [ "a,1"; "a,2"; "b,5" ] in
  let sums = Hive.aggregate_sum mr ~key:0 ~value:1 t |> List.sort compare in
  Alcotest.(check (list string)) "sums" [ "a,3"; "b,5" ] sums;
  Alcotest.(check int) "count" 3 (Hive.count mr t)

let test_mahout_roundtrip () =
  let m = Mat.random (Gb_util.Prng.create 2L) 5 4 in
  let back = Mahout.to_mat ~rows:5 ~cols:4 (Mahout.of_mat m) in
  Alcotest.(check bool) "roundtrip" (Mat.max_abs_diff m back < 1e-9) true

let test_mahout_transpose () =
  let mr = Mr.create ~job_overhead_s:0. () in
  let m = Mat.random (Gb_util.Prng.create 3L) 4 6 in
  let t = Mahout.to_mat ~rows:6 ~cols:4 (Mahout.transpose mr (Mahout.of_mat m)) in
  Alcotest.(check bool) "transpose" (Mat.equal t (Mat.transpose m)) true

let test_mahout_matmul () =
  let mr = Mr.create ~job_overhead_s:0. () in
  let g = Gb_util.Prng.create 4L in
  let a = Mat.random g 5 3 and b = Mat.random g 3 4 in
  let out =
    Mahout.to_mat ~rows:5 ~cols:4
      (Mahout.matmul mr (Mahout.of_mat a) (Mahout.of_mat b))
  in
  Alcotest.(check bool) "matmul"
    (Mat.max_abs_diff out (Gb_linalg.Blas.gemm a b) < 1e-9)
    true

let test_mahout_covariance () =
  let mr = Mr.create ~job_overhead_s:0. () in
  let m = Mat.random (Gb_util.Prng.create 5L) 15 6 in
  let cov =
    Mahout.to_mat ~rows:6 ~cols:6
      (Mahout.covariance mr ~rows:15 ~cols:6 (Mahout.of_mat m))
  in
  Alcotest.(check bool) "covariance"
    (Mat.max_abs_diff cov (Gb_linalg.Covariance.matrix m) < 1e-8)
    true

let test_mahout_regression () =
  let mr = Mr.create ~job_overhead_s:0. () in
  let g = Gb_util.Prng.create 6L in
  let x = Mat.random g 100 3 in
  let y =
    Array.init 100 (fun i ->
        2. +. (3. *. Mat.get x i 0) -. (1.5 *. Mat.get x i 2))
  in
  let beta = Mahout.regression mr ~rows:100 ~cols:3 (Mahout.of_mat x) y in
  Alcotest.(check (float 1e-6)) "intercept" 2. beta.(0);
  Alcotest.(check (float 1e-6)) "b1" 3. beta.(1);
  Alcotest.(check (float 1e-6)) "b2" 0. beta.(2);
  Alcotest.(check (float 1e-6)) "b3" (-1.5) beta.(3)

let test_mahout_lanczos () =
  let mr = Mr.create ~job_overhead_s:0. () in
  let g = Gb_util.Prng.create 7L in
  let m = Mat.random g 20 8 in
  let eigs = Mahout.lanczos_eigs mr ~rows:20 ~cols:8 ~k:3 (Mahout.of_mat m) in
  let exact = Gb_linalg.Lanczos.top_eigen ~rng:g (Gb_linalg.Blas.ata m) 3 in
  Array.iteri
    (fun i e ->
      Alcotest.(check bool) "close"
        (Float.abs (e -. exact.Gb_linalg.Lanczos.eigenvalues.(i)) < 1e-5)
        true)
    eigs

let test_combiner_preserves_result () =
  let sum_reducer _k vs =
    [ string_of_float (List.fold_left (fun a v -> a +. float_of_string v) 0. vs) ]
  in
  let inputs = List.init 500 (fun i -> Printf.sprintf "%d,%d" (i mod 7) i) in
  let mapper line =
    match String.split_on_char ',' line with
    | [ k; v ] -> [ (k, v) ]
    | _ -> []
  in
  let mr1 = Mr.create ~job_overhead_s:0. () in
  let plain = Mr.run_job mr1 ~name:"sum" ~mapper ~reducer:sum_reducer inputs in
  let mr2 = Mr.create ~job_overhead_s:0. () in
  let combined =
    Mr.run_job mr2 ~name:"sum" ~combiner:sum_reducer ~mapper
      ~reducer:sum_reducer inputs
  in
  Alcotest.(check (list string)) "same sums" (List.sort compare plain)
    (List.sort compare combined)

let suite =
  [
    ("wordcount", `Quick, test_wordcount);
    ("combiner preserves result", `Quick, test_combiner_preserves_result);
    ("map only", `Quick, test_map_only);
    ("run combine", `Quick, test_run_combine);
    ("deadline", `Quick, test_deadline);
    ("multinode compute", `Quick, test_multinode_faster_compute);
    ("hive select/project", `Quick, test_hive_select_project);
    ("hive join", `Quick, test_hive_join);
    ("hive aggregate/count", `Quick, test_hive_aggregate_count);
    ("mahout roundtrip", `Quick, test_mahout_roundtrip);
    ("mahout transpose", `Quick, test_mahout_transpose);
    ("mahout matmul", `Quick, test_mahout_matmul);
    ("mahout covariance", `Quick, test_mahout_covariance);
    ("mahout regression", `Quick, test_mahout_regression);
    ("mahout lanczos", `Quick, test_mahout_lanczos);
  ]

