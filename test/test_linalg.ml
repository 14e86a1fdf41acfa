open Gb_linalg

let check_float = Alcotest.(check (float 1e-8))
let rng () = Gb_util.Prng.create 0xFEEDL

(* --- Mat --- *)

let test_mat_basics () =
  let m = Mat.init 3 4 (fun i j -> float_of_int ((i * 10) + j)) in
  Alcotest.(check (pair int int)) "dims" (3, 4) (Mat.dims m);
  check_float "get" 12. (Mat.get m 1 2);
  Mat.set m 1 2 99.;
  check_float "set" 99. (Mat.get m 1 2);
  Alcotest.check_raises "oob" (Invalid_argument "Mat.get: out of bounds")
    (fun () -> ignore (Mat.get m 3 0))

let test_mat_transpose () =
  let m = Mat.random (rng ()) 5 3 in
  let t = Mat.transpose m in
  Alcotest.(check (pair int int)) "dims" (3, 5) (Mat.dims t);
  Alcotest.(check bool) "involutive" (Mat.equal m (Mat.transpose t)) true

let test_mat_sub_rows_cols () =
  let m = Mat.init 4 4 (fun i j -> float_of_int ((i * 4) + j)) in
  let r = Mat.sub_rows m [| 2; 0 |] in
  check_float "row pick" 8. (Mat.get r 0 0);
  check_float "row pick2" 0. (Mat.get r 1 0);
  let c = Mat.sub_cols m [| 3; 1 |] in
  check_float "col pick" 3. (Mat.get c 0 0);
  check_float "col pick2" 1. (Mat.get c 0 1)

let test_mat_center_cols () =
  let m = Mat.of_arrays [| [| 1.; 10. |]; [| 3.; 20. |] |] in
  let c = Mat.center_cols m in
  check_float "centered" (-1.) (Mat.get c 0 0);
  check_float "centered2" 5. (Mat.get c 1 1);
  let means = Mat.col_means c in
  check_float "zero mean" 0. means.(0);
  check_float "zero mean2" 0. means.(1)

let test_mat_arith () =
  let a = Mat.of_arrays [| [| 1.; 2. |] |] in
  let b = Mat.of_arrays [| [| 3.; 4. |] |] in
  check_float "add" 6. (Mat.get (Mat.add a b) 0 1);
  check_float "sub" (-2.) (Mat.get (Mat.sub a b) 0 0);
  check_float "scale" 4. (Mat.get (Mat.scale 2. a) 0 1);
  check_float "frobenius" (sqrt 5.) (Mat.frobenius a)

(* --- Vec / Blas --- *)

let test_vec_ops () =
  let x = [| 1.; 2.; 3. |] and y = [| 4.; 5.; 6. |] in
  check_float "dot" 32. (Vec.dot x y);
  check_float "nrm2" (sqrt 14.) (Vec.nrm2 x);
  let y2 = Array.copy y in
  Vec.axpy 2. x y2;
  check_float "axpy" 6. y2.(0);
  check_float "normalize" 1. (Vec.nrm2 (Vec.normalize x))

let test_gemv () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let y = Blas.gemv a [| 1.; 1. |] in
  check_float "gemv0" 3. y.(0);
  check_float "gemv1" 7. y.(1);
  let yt = Blas.gemv_t a [| 1.; 1. |] in
  check_float "gemv_t0" 4. yt.(0);
  check_float "gemv_t1" 6. yt.(1)

let test_gemm_matches_naive () =
  let g = rng () in
  let a = Mat.random g 33 47 and b = Mat.random g 47 29 in
  Alcotest.(check bool) "blocked == naive"
    (Mat.max_abs_diff (Blas.gemm a b) (Blas.gemm_naive a b) < 1e-10)
    true

let test_atb_ata_aat () =
  let g = rng () in
  let a = Mat.random g 20 11 and b = Mat.random g 20 7 in
  let expect = Blas.gemm (Mat.transpose a) b in
  Alcotest.(check bool) "atb" (Mat.max_abs_diff (Blas.atb a b) expect < 1e-10) true;
  let ata = Blas.ata a in
  Alcotest.(check bool) "ata symmetric"
    (Mat.max_abs_diff ata (Mat.transpose ata) < 1e-12)
    true;
  let aat = Blas.aat a in
  let expect2 = Blas.gemm a (Mat.transpose a) in
  Alcotest.(check bool) "aat" (Mat.max_abs_diff aat expect2 < 1e-10) true

(* --- QR --- *)

let test_qr_reconstruction () =
  let g = rng () in
  let a = Mat.random g 30 12 in
  let qr = Qr.factorize a in
  let q = Qr.q qr and r = Qr.r qr in
  Alcotest.(check bool) "QR = A" (Mat.max_abs_diff a (Blas.gemm q r) < 1e-10) true;
  Alcotest.(check bool) "Q orthonormal"
    (Mat.max_abs_diff (Blas.ata q) (Mat.identity 12) < 1e-10)
    true;
  (* R upper triangular *)
  let ok = ref true in
  for i = 1 to 11 do
    for j = 0 to i - 1 do
      if Float.abs (Mat.get r i j) > 1e-12 then ok := false
    done
  done;
  Alcotest.(check bool) "R upper triangular" !ok true

let test_qr_solve_exact () =
  let a = Mat.of_arrays [| [| 2.; 0. |]; [| 0.; 4. |]; [| 0.; 0. |] |] in
  let x = Qr.solve (Qr.factorize a) [| 2.; 8.; 0. |] in
  check_float "x0" 1. x.(0);
  check_float "x1" 2. x.(1)

let test_qr_rank_deficient () =
  let a = Mat.of_arrays [| [| 1.; 1. |]; [| 1.; 1. |]; [| 1.; 1. |] |] in
  Alcotest.check_raises "rank deficient" (Failure "Qr.solve: rank deficient")
    (fun () -> ignore (Qr.least_squares a [| 1.; 2.; 3. |]))

(* --- Linreg --- *)

let planted_fit fit =
  let g = rng () in
  let x = Mat.random g 300 6 in
  let coef = [| 1.5; -2.; 0.7; 3.; -0.1; 2.2 |] in
  let y = Array.init 300 (fun i -> 5. +. Vec.dot coef (Mat.row x i)) in
  let m = fit x y in
  Alcotest.(check (float 1e-6)) "intercept" 5. m.Linreg.intercept;
  Array.iteri
    (fun j c -> Alcotest.(check (float 1e-6)) "coef" c m.Linreg.coefficients.(j))
    coef;
  Alcotest.(check (float 1e-6)) "r2" 1. m.Linreg.r_squared

let test_linreg_qr () = planted_fit Linreg.fit
let test_linreg_normal () = planted_fit Linreg.fit_normal_equations

let test_linreg_agreement_with_noise () =
  let g = rng () in
  let x = Mat.random g 200 4 in
  let y =
    Array.init 200 (fun i ->
        (2. *. Mat.get x i 0) -. Mat.get x i 3 +. Gb_util.Prng.normal g)
  in
  let a = Linreg.fit x y and b = Linreg.fit_normal_equations x y in
  Array.iteri
    (fun j c ->
      Alcotest.(check (float 1e-6)) "both solvers agree" c
        b.Linreg.coefficients.(j))
    a.Linreg.coefficients

let test_linreg_predict () =
  let x = Mat.of_arrays [| [| 0. |]; [| 1. |]; [| 2. |]; [| 3. |] |] in
  let y = [| 1.; 3.; 5.; 7. |] in
  let m = Linreg.fit x y in
  check_float "predict" 9. (Linreg.predict m [| 4. |])

(* --- Solve --- *)

let test_cholesky () =
  let a = Mat.of_arrays [| [| 4.; 2. |]; [| 2.; 3. |] |] in
  let x = Solve.cholesky a [| 8.; 7. |] in
  check_float "x0" 1.25 x.(0);
  check_float "x1" 1.5 x.(1);
  let l = Solve.cholesky_factor a in
  Alcotest.(check bool) "LL^T = A"
    (Mat.max_abs_diff (Blas.gemm l (Mat.transpose l)) a < 1e-12)
    true

let test_cholesky_not_pd () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  Alcotest.check_raises "not pd" (Failure "Solve.cholesky: not positive definite")
    (fun () -> ignore (Solve.cholesky a [| 1.; 1. |]))

(* --- Tridiag --- *)

let test_tridiag_known () =
  (* [[2,1],[1,2]] has eigenvalues 3 and 1. *)
  let values, vectors = Tridiag.eigen [| 2.; 2. |] [| 1. |] in
  check_float "lambda1" 3. values.(0);
  check_float "lambda2" 1. values.(1);
  let v0 = Mat.col vectors 0 in
  check_float "unit" 1. (Vec.nrm2 v0)

let test_tridiag_vs_dense_trace () =
  let diag = [| 5.; 3.; 1.; 4.; 2. |] and off = [| 1.; 0.5; 0.2; 0.9 |] in
  let values = Tridiag.eigenvalues diag off in
  let trace = Array.fold_left ( +. ) 0. diag in
  let sum = Array.fold_left ( +. ) 0. values in
  Alcotest.(check (float 1e-8)) "trace preserved" trace sum;
  (* descending *)
  for i = 1 to 4 do
    Alcotest.(check bool) "sorted" (values.(i) <= values.(i - 1)) true
  done

(* --- Lanczos / SVD --- *)

let test_lanczos_vs_tridiag () =
  let g = rng () in
  let b = Mat.random g 12 12 in
  let a = Blas.ata b (* SPD *) in
  let res = Lanczos.top_eigen ~rng:g a 4 in
  (* Compare against dense eigenvalues of a via Jacobi-like check:
     verify A v = lambda v for each returned pair instead. *)
  Array.iteri
    (fun k lambda ->
      let v = Mat.col res.Lanczos.eigenvectors k in
      let av = Blas.gemv a v in
      let diff = Vec.nrm2 (Vec.sub av (Vec.scale lambda v)) in
      Alcotest.(check bool) "eigenpair residual" (diff < 1e-6) true)
    res.Lanczos.eigenvalues

let test_svd_low_rank () =
  let g = rng () in
  let u0 = Mat.random g 40 3 and v0 = Mat.random g 3 25 in
  let m = Blas.gemm u0 v0 in
  let svd = Svd.top_k ~rng:g m 5 in
  Alcotest.(check bool) "rank-3 recovery"
    (Svd.reconstruction_error m svd < 1e-8)
    true;
  (* Lanczos may stop early once the rank-3 subspace is exhausted, so at
     most [k] values come back, the trailing ones ~0. *)
  Alcotest.(check bool) "at least rank many" (Array.length svd.Svd.s >= 4) true;
  Alcotest.(check bool) "s4 ~ 0" (svd.Svd.s.(3) < 1e-6) true;
  for i = 1 to Array.length svd.Svd.s - 1 do
    Alcotest.(check bool) "descending" (svd.Svd.s.(i) <= svd.Svd.s.(i - 1)) true
  done

let test_svd_wide_matrix () =
  let g = rng () in
  let m = Mat.random g 10 30 in
  let svd = Svd.top_k ~rng:g m 10 in
  (* Full rank: reconstruction with k = min dim should be exact. *)
  Alcotest.(check bool) "full-k exact"
    (Svd.reconstruction_error m svd < 1e-7)
    true

let test_svd_singular_values_invariant () =
  let g = rng () in
  let m = Mat.random g 25 15 in
  let s1 = (Svd.top_k ~rng:(Gb_util.Prng.create 1L) m 5).Svd.s in
  let s2 = (Svd.top_k ~rng:(Gb_util.Prng.create 99L) m 5).Svd.s in
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 1e-6)) "start-vector independent" v s2.(i))
    s1

(* --- Covariance --- *)

let test_covariance_known () =
  let m = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 6. |] |] in
  let c = Covariance.matrix m in
  check_float "var x" 2. (Mat.get c 0 0);
  check_float "cov xy" 4. (Mat.get c 0 1);
  check_float "var y" 8. (Mat.get c 1 1)

let test_covariance_naive_matches () =
  let g = rng () in
  let m = Mat.random g 30 8 in
  Alcotest.(check bool) "naive == blocked"
    (Mat.max_abs_diff (Covariance.matrix m) (Covariance.matrix_naive m) < 1e-10)
    true

let test_covariance_psd () =
  let g = rng () in
  let m = Mat.random g 50 10 in
  let c = Covariance.matrix m in
  (* PSD: all eigenvalues >= 0 (check via Lanczos on -C giving none > 0). *)
  let res = Lanczos.top_eigen ~rng:g (Mat.scale (-1.) c) 3 in
  Array.iter
    (fun lambda -> Alcotest.(check bool) "psd" (lambda < 1e-8) true)
    res.Lanczos.eigenvalues

let test_covariance_top_fraction () =
  let g = rng () in
  let c = Covariance.matrix (Mat.random g 40 10) in
  let pairs = Covariance.top_fraction c 0.1 in
  Alcotest.(check int) "10% of 45 pairs" 5 (List.length pairs);
  let abs3 = List.map (fun (_, _, v) -> Float.abs v) pairs in
  let rec desc = function
    | a :: b :: tl -> a >= b && desc (b :: tl)
    | _ -> true
  in
  Alcotest.(check bool) "descending |cov|" (desc abs3) true

(* The exact order [top_fraction] returns, which a selection in place of
   its full sort must reproduce: descending |cov|, a tie putting the
   pair enumerated later (row-major over the upper triangle) first, -0.
   tying with 0., NaN last; it keeps ceil(q * pairs) pairs, at least
   one, at most all. Only the upper triangle is read, so the matrices
   are built by hand with junk below the diagonal. *)
let test_covariance_top_fraction_order () =
  let x = 99. in
  let pin name c q expected =
    let bits l = List.map (fun (i, j, v) -> (i, j, Int64.bits_of_float v)) l in
    Alcotest.(check (list (triple int int int64)))
      name (bits expected)
      (bits (Covariance.top_fraction (Mat.of_arrays c) q))
  in
  let ties =
    [|
      [| 0.; 0.5; -0.5; 0.2 |];
      [| x; 0.; 0.2; -0.9 |];
      [| x; x; 0.; 0.5 |];
      [| x; x; x; 0. |];
    |]
  in
  let all =
    [ (1, 3, -0.9); (2, 3, 0.5); (0, 2, -0.5); (0, 1, 0.5); (1, 2, 0.2);
      (0, 3, 0.2) ]
  in
  pin "ties: later pair first" ties 1.0 all;
  pin "half of 6 pairs" ties 0.5 [ (1, 3, -0.9); (2, 3, 0.5); (0, 2, -0.5) ];
  pin "ceil of 0.6 pairs" ties 0.1 [ (1, 3, -0.9) ];
  pin "q = 0 keeps one pair" ties 0. [ (1, 3, -0.9) ];
  pin "q > 1 keeps all" ties 1.5 all;
  let nan = Float.nan in
  let specials =
    [|
      [| 0.; nan; -0.; 1. |];
      [| x; 0.; 0.; nan |];
      [| x; x; 0.; -2. |];
      [| x; x; x; 0. |];
    |]
  in
  pin "-0. ties 0., NaN last" specials 1.0
    [ (2, 3, -2.); (0, 3, 1.); (1, 2, 0.); (0, 2, -0.); (1, 3, nan); (0, 1, nan) ];
  pin "half of 6 pairs, NaN cut" specials 0.5 [ (2, 3, -2.); (0, 3, 1.); (1, 2, 0.) ];
  pin "one column has no pair" [| [| 1. |] |] 1.0 [];
  pin "no column has no pair" [||] 0. []

(* --- QCheck properties --- *)

let mat_gen =
  QCheck.Gen.(
    let* rows = int_range 2 12 in
    let* cols = int_range 2 12 in
    let* seed = int_range 1 1_000_000 in
    return (rows, cols, seed))

let arb_mat = QCheck.make mat_gen

let mk (rows, cols, seed) =
  Mat.random (Gb_util.Prng.create (Int64.of_int seed)) rows cols

let prop_qr_reconstructs =
  QCheck.Test.make ~name:"qr reconstructs A" ~count:50 arb_mat (fun (r, c, s) ->
      let r = max r c and c = min r c in
      let a = mk (r, c, s) in
      let qr = Qr.factorize a in
      Mat.max_abs_diff a (Blas.gemm (Qr.q qr) (Qr.r qr)) < 1e-8)

let prop_gemm_assoc_with_vector =
  QCheck.Test.make ~name:"(AB)x = A(Bx)" ~count:50 arb_mat (fun (r, c, s) ->
      let g = Gb_util.Prng.create (Int64.of_int s) in
      let a = Mat.random g r c and b = Mat.random g c r in
      let x = Array.init r (fun _ -> Gb_util.Prng.normal g) in
      let lhs = Blas.gemv (Blas.gemm a b) x in
      let rhs = Blas.gemv a (Blas.gemv b x) in
      Vec.nrm2 (Vec.sub lhs rhs) < 1e-8 *. (1. +. Vec.nrm2 lhs))

let prop_covariance_symmetric =
  QCheck.Test.make ~name:"covariance symmetric" ~count:50 arb_mat
    (fun (r, c, s) ->
      let m = mk (max 2 r, c, s) in
      let cov = Covariance.matrix m in
      Mat.max_abs_diff cov (Mat.transpose cov) < 1e-12)

let prop_transpose_involutive =
  QCheck.Test.make ~name:"transpose involutive" ~count:50 arb_mat
    (fun (r, c, s) ->
      let m = mk (r, c, s) in
      Mat.equal m (Mat.transpose (Mat.transpose m)))

(* --- Randomized (sketch) algorithms --- *)

let test_randomized_svd_low_rank () =
  let g = rng () in
  let u0 = Mat.random g 60 4 and v0 = Mat.random g 4 40 in
  let m = Blas.gemm u0 v0 in
  let approx = Randomized.svd ~rng:g m 6 in
  Alcotest.(check bool) "captures the rank-4 structure"
    (Svd.reconstruction_error m approx < 1e-6 *. Mat.frobenius m)
    true

let test_randomized_svd_close_to_exact () =
  let g = rng () in
  let m = Mat.random g 80 50 in
  let exact = Svd.top_k ~rng:g m 5 in
  let approx = Randomized.svd ~rng:g ~power_iterations:3 m 5 in
  Array.iteri
    (fun i s ->
      Alcotest.(check bool) "singular value within 2%"
        (Float.abs (s -. approx.Svd.s.(i)) < 0.02 *. s)
        true)
    exact.Svd.s

let test_covariance_sample_unbiased_shape () =
  let g = rng () in
  let m = Mat.random g 400 6 in
  let full = Covariance.matrix m in
  let sampled = Randomized.covariance_sample ~rng:g ~rows:200 m in
  Alcotest.(check (pair int int)) "dims" (Mat.dims full) (Mat.dims sampled);
  (* A half sample of 400 standard-normal rows estimates covariance within
     a loose tolerance. *)
  Alcotest.(check bool) "roughly matches"
    (Mat.max_abs_diff full sampled < 0.5)
    true;
  let all = Randomized.covariance_sample ~rng:g ~rows:1_000 m in
  Alcotest.(check bool) "full sample exact" (Mat.equal full all) true

(* --- allocation budgets ---

   Under the dev profile's -opaque, a Mat accessor called from another
   module is an out-of-line call that boxes its float, so an inner loop
   built on one allocates per element. Each budget below grows with the
   dimensions (m + n), not with their product, so such a loop creeping
   back into a kernel overshoots it by orders of magnitude. Shapes keep
   every vector under the minor heap's size limit, so the scratch
   vectors are counted too. [Gc.minor_words] counts the calling domain
   only, hence the pool pinned to one domain. *)

let minor_words f =
  Gb_par.Pool.set_jobs 1;
  Fun.protect ~finally:Gb_par.Pool.reset_jobs (fun () ->
      ignore (Sys.opaque_identity (f ()));
      let before = Gc.minor_words () in
      ignore (Sys.opaque_identity (f ()));
      Gc.minor_words () -. before)

let check_budget name ~budget f =
  let words = minor_words f in
  if words > budget then
    Alcotest.failf "%s allocated %.0f minor words, budget %.0f" name words
      budget

let test_alloc_qr () =
  let m = 240 and n = 60 in
  let a = Mat.random (rng ()) m n in
  let b = Array.init m float_of_int in
  check_budget "Qr.factorize + Qr.solve 240x60"
    ~budget:(8. *. float_of_int (m + n))
    (fun () -> Qr.solve (Qr.factorize a) b)

let test_alloc_tridiag () =
  let n = 120 in
  let g = rng () in
  let d = Array.init n (fun _ -> Gb_util.Prng.normal g) in
  let e = Array.init (n - 1) (fun _ -> Gb_util.Prng.normal g) in
  check_budget "Tridiag.eigen 120" ~budget:(16. *. float_of_int n) (fun () ->
      Tridiag.eigen d e)

(* Each iteration allocates its basis vector and operator output (n
   words each) and boxes one dot product per reorthogonalization step
   (at most n), so this budget is per iteration: O(n + k) words each. *)
let test_alloc_lanczos () =
  let n = 200 and k = 60 in
  let a = Blas.aat (Mat.random (rng ()) n n) in
  let run () =
    Lanczos.symmetric ~rng:(Gb_util.Prng.create 3L) ~n ~k (fun v ->
        Blas.gemv a v)
  in
  let iters = (run ()).Lanczos.iterations in
  check_budget "Lanczos.symmetric n=200 k=60"
    ~budget:(10. *. float_of_int (iters * (n + k)))
    run

let test_alloc_moments () =
  let d = 100 in
  let g = rng () in
  let sk = Moments.of_matrix (Mat.random g 5 d) in
  let row = Array.init d (fun _ -> Gb_util.Prng.normal g) in
  check_budget "Moments.add_row + remove_row d=100"
    ~budget:(8. *. float_of_int d) (fun () ->
      Moments.add_row sk row;
      Moments.remove_row sk row)

let test_alloc_cholesky () =
  let n = 60 in
  let x = Mat.random (rng ()) (2 * n) n in
  let a = Blas.ata x in
  let b = Array.init n float_of_int in
  check_budget "Solve.cholesky 60" ~budget:(8. *. float_of_int n) (fun () ->
      Solve.cholesky a b)

let suite =
  [
    ("mat basics", `Quick, test_mat_basics);
    ("mat transpose", `Quick, test_mat_transpose);
    ("mat sub rows/cols", `Quick, test_mat_sub_rows_cols);
    ("mat center cols", `Quick, test_mat_center_cols);
    ("mat arithmetic", `Quick, test_mat_arith);
    ("vec ops", `Quick, test_vec_ops);
    ("gemv", `Quick, test_gemv);
    ("gemm matches naive", `Quick, test_gemm_matches_naive);
    ("atb/ata/aat", `Quick, test_atb_ata_aat);
    ("qr reconstruction", `Quick, test_qr_reconstruction);
    ("qr solve exact", `Quick, test_qr_solve_exact);
    ("qr rank deficient", `Quick, test_qr_rank_deficient);
    ("linreg qr planted", `Quick, test_linreg_qr);
    ("linreg normal planted", `Quick, test_linreg_normal);
    ("linreg solvers agree", `Quick, test_linreg_agreement_with_noise);
    ("linreg predict", `Quick, test_linreg_predict);
    ("cholesky", `Quick, test_cholesky);
    ("cholesky not pd", `Quick, test_cholesky_not_pd);
    ("tridiag known", `Quick, test_tridiag_known);
    ("tridiag trace", `Quick, test_tridiag_vs_dense_trace);
    ("lanczos eigenpairs", `Quick, test_lanczos_vs_tridiag);
    ("svd low rank", `Quick, test_svd_low_rank);
    ("svd wide matrix", `Quick, test_svd_wide_matrix);
    ("svd deterministic values", `Quick, test_svd_singular_values_invariant);
    ("covariance known", `Quick, test_covariance_known);
    ("covariance naive matches", `Quick, test_covariance_naive_matches);
    ("covariance psd", `Quick, test_covariance_psd);
    ("covariance top fraction", `Quick, test_covariance_top_fraction);
    ("covariance top fraction order", `Quick, test_covariance_top_fraction_order);
    ("randomized svd low rank", `Quick, test_randomized_svd_low_rank);
    ("randomized svd close to exact", `Quick, test_randomized_svd_close_to_exact);
    ("covariance sampling", `Quick, test_covariance_sample_unbiased_shape);
    ("alloc budget qr", `Quick, test_alloc_qr);
    ("alloc budget tridiag", `Quick, test_alloc_tridiag);
    ("alloc budget lanczos", `Quick, test_alloc_lanczos);
    ("alloc budget moments", `Quick, test_alloc_moments);
    ("alloc budget cholesky", `Quick, test_alloc_cholesky);
    QCheck_alcotest.to_alcotest prop_qr_reconstructs;
    QCheck_alcotest.to_alcotest prop_gemm_assoc_with_vector;
    QCheck_alcotest.to_alcotest prop_covariance_symmetric;
    QCheck_alcotest.to_alcotest prop_transpose_involutive;
  ]

