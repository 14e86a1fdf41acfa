(* Dense eigensolver tests, including cross-validation of the iterative
   solvers against the Jacobi reference. *)

open Gb_linalg

let rng () = Gb_util.Prng.create 0xACE5L

let test_eigen_known () =
  let a = Mat.of_arrays [| [| 2.; 1. |]; [| 1.; 2. |] |] in
  let values, vectors = Eigen.symmetric a in
  Alcotest.(check (float 1e-10)) "lambda1" 3. values.(0);
  Alcotest.(check (float 1e-10)) "lambda2" 1. values.(1);
  (* Eigenvector of 3 is (1,1)/sqrt2 up to sign. *)
  let v = Mat.col vectors 0 in
  Alcotest.(check (float 1e-10)) "components equal" (Float.abs v.(0))
    (Float.abs v.(1))

let test_eigen_reconstructs () =
  let g = rng () in
  let b = Mat.random g 15 15 in
  let a = Blas.ata b in
  let values, vectors = Eigen.symmetric a in
  (* A = V diag(values) V^T *)
  let vd =
    Mat.init 15 15 (fun i j -> Mat.get vectors i j *. values.(j))
  in
  let recon = Blas.gemm vd (Mat.transpose vectors) in
  Alcotest.(check bool) "reconstructs" (Mat.max_abs_diff a recon < 1e-8) true;
  (* V orthonormal *)
  Alcotest.(check bool) "orthonormal"
    (Mat.max_abs_diff (Blas.ata vectors) (Mat.identity 15) < 1e-10)
    true

let test_eigen_validates_lanczos () =
  let g = rng () in
  let b = Mat.random g 20 20 in
  let a = Blas.ata b in
  let dense = Eigen.eigenvalues a in
  let lanczos = Lanczos.top_eigen ~rng:g a 5 in
  Array.iteri
    (fun i lambda ->
      Alcotest.(check (float 1e-6)) "lanczos matches jacobi" dense.(i) lambda)
    lanczos.Lanczos.eigenvalues

let test_eigen_validates_tridiag () =
  let diag = [| 4.; 2.; 7.; 1. |] and off = [| 1.; 0.5; 2. |] in
  let dense =
    Eigen.eigenvalues
      (Mat.init 4 4 (fun i j ->
           if i = j then diag.(i)
           else if abs (i - j) = 1 then off.(min i j)
           else 0.))
  in
  let ql = Tridiag.eigenvalues diag off in
  Array.iteri
    (fun i v -> Alcotest.(check (float 1e-9)) "ql matches jacobi" dense.(i) v)
    ql

let test_eigen_rejects_asymmetric () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 0.; 1. |] |] in
  Alcotest.check_raises "asymmetric"
    (Invalid_argument "Eigen.symmetric: not symmetric") (fun () ->
      ignore (Eigen.symmetric a))

let prop_det_matches_eigen_product =
  QCheck.Test.make ~name:"det(A^T A) = prod eigenvalues" ~count:30
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let g = Gb_util.Prng.create (Int64.of_int seed) in
      let b = Mat.random g 6 6 in
      let a = Blas.ata b in
      (* B = QR gives B^T B = R^T R, so det = prod R_ii^2. *)
      let r = Qr.r (Qr.factorize b) in
      let det = ref 1. in
      for i = 0 to 5 do
        det := !det *. Mat.get r i i *. Mat.get r i i
      done;
      let prod = Array.fold_left ( *. ) 1. (Eigen.eigenvalues a) in
      Float.abs (!det -. prod) < 1e-6 *. (1. +. Float.abs !det))

let suite =
  [
    ("eigen known 2x2", `Quick, test_eigen_known);
    ("eigen reconstructs", `Quick, test_eigen_reconstructs);
    ("eigen validates lanczos", `Quick, test_eigen_validates_lanczos);
    ("eigen validates tridiag", `Quick, test_eigen_validates_tridiag);
    ("eigen rejects asymmetric", `Quick, test_eigen_rejects_asymmetric);
    QCheck_alcotest.to_alcotest prop_det_matches_eigen_product;
  ]
