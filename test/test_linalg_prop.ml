(* Property-based checks on the linear-algebra kernels: QR orthogonality,
   SVD reconstruction, and Lanczos against the dense Jacobi eigensolver on
   random symmetric matrices. *)

module Mat = Gb_linalg.Mat
module Blas = Gb_linalg.Blas
module Qr = Gb_linalg.Qr
module Svd = Gb_linalg.Svd
module Lanczos = Gb_linalg.Lanczos
module Eigen = Gb_linalg.Eigen
module Prng = Gb_util.Prng

let seed_gen = QCheck.Gen.(map Int64.of_int (int_range 1 1_000_000))

let arb_tall =
  (* rows >= cols, as Householder QR requires *)
  QCheck.make
    ~print:(fun (r, c, s) -> Printf.sprintf "%dx%d seed %Ld" r c s)
    QCheck.Gen.(
      int_range 1 12 >>= fun c ->
      int_range c 30 >>= fun r ->
      seed_gen >|= fun s -> (r, c, s))

let random_mat rows cols seed = Mat.random (Prng.create seed) rows cols

let prop_qr_orthogonal =
  QCheck.Test.make ~name:"QR: Q has orthonormal columns" ~count:100 arb_tall
    (fun (rows, cols, seed) ->
      let q = Qr.q (Qr.factorize (random_mat rows cols seed)) in
      let qtq = Blas.ata q in
      let d = Mat.max_abs_diff qtq (Mat.identity cols) in
      if d < 1e-10 then true
      else QCheck.Test.fail_reportf "max |QᵀQ - I| = %g" d)

let prop_qr_reproduces =
  QCheck.Test.make ~name:"QR: Q·R reproduces the input" ~count:100 arb_tall
    (fun (rows, cols, seed) ->
      let m = random_mat rows cols seed in
      let f = Qr.factorize m in
      let d = Mat.max_abs_diff (Blas.gemm (Qr.q f) (Qr.r f)) m in
      if d < 1e-10 then true else QCheck.Test.fail_reportf "max |QR - M| = %g" d)

let prop_svd_reconstructs =
  QCheck.Test.make ~name:"SVD: full-rank reconstruction" ~count:60 arb_tall
    (fun (rows, cols, seed) ->
      let m = random_mat rows cols seed in
      let k = min rows cols in
      let svd = Svd.top_k ~rng:(Prng.create 1L) m k in
      let err = Svd.reconstruction_error m svd in
      let budget = 1e-6 *. Float.max 1. (Mat.frobenius m) in
      if err < budget then true
      else QCheck.Test.fail_reportf "‖M - USVᵀ‖ = %g (budget %g)" err budget)

let prop_svd_descending =
  QCheck.Test.make ~name:"SVD: singular values descending, non-negative"
    ~count:100 arb_tall (fun (rows, cols, seed) ->
      let svd = Svd.top_k ~rng:(Prng.create 1L) (random_mat rows cols seed) (min rows cols) in
      let ok = ref (Array.for_all (fun s -> s >= 0.) svd.Svd.s) in
      Array.iteri
        (fun i s -> if i > 0 && s > svd.Svd.s.(i - 1) +. 1e-12 then ok := false)
        svd.Svd.s;
      !ok)

let arb_sym =
  QCheck.make
    ~print:(fun (n, s) -> Printf.sprintf "%dx%d seed %Ld" n n s)
    QCheck.Gen.(pair (int_range 3 15) seed_gen)

(* B·Bᵀ: symmetric positive semi-definite with a generic spectrum. *)
let random_sym n seed = Blas.aat (random_mat n n seed)

let prop_lanczos_matches_dense =
  QCheck.Test.make ~name:"Lanczos matches dense Jacobi eigenvalues" ~count:60
    arb_sym (fun (n, seed) ->
      let a = random_sym n seed in
      let k = min n 5 in
      let lz = Lanczos.top_eigen ~rng:(Prng.create 2L) a k in
      let dense = Eigen.eigenvalues a in
      let scale = Float.max 1. (Float.abs dense.(0)) in
      let ok = ref true in
      for i = 0 to k - 1 do
        if Float.abs (lz.Lanczos.eigenvalues.(i) -. dense.(i)) /. scale > 1e-7
        then ok := false
      done;
      if !ok then true
      else
        QCheck.Test.fail_reportf "lanczos %s vs dense %s"
          (String.concat " "
             (Array.to_list (Array.map (Printf.sprintf "%.9g") lz.Lanczos.eigenvalues)))
          (String.concat " "
             (Array.to_list
                (Array.map (Printf.sprintf "%.9g") (Array.sub dense 0 k)))))

(* --- parallel kernels vs sequential, via the conformance comparators ---

   The Domain-pool kernels partition over output elements, so any domain
   count must reproduce the sequential bits exactly; the conformance
   comparator check (the cross-engine tolerance machinery) is the
   coarser contract the benchmark itself relies on, asserted on top. *)

let with_jobs jobs f =
  Gb_par.Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Gb_par.Pool.reset_jobs ()) f

let arb_cov =
  (* Covariance.matrix needs at least two rows. *)
  QCheck.make
    ~print:(fun (r, c, s) -> Printf.sprintf "%dx%d seed %Ld" r c s)
    QCheck.Gen.(
      int_range 2 10 >>= fun c ->
      int_range (max 2 c) 24 >>= fun r ->
      seed_gen >|= fun s -> (r, c, s))

let prop_parallel_gemm_bitwise =
  QCheck.Test.make ~name:"parallel GEMM bitwise-matches sequential" ~count:40
    arb_cov (fun (rows, cols, seed) ->
      let a = random_mat rows cols seed in
      let b = random_mat cols rows (Int64.add seed 1L) in
      (* One multiply per jobs level, fingerprinted bit-exactly. *)
      let product jobs =
        with_jobs jobs (fun () ->
            let c = Blas.gemm a b in
            let flat = Array.init (rows * rows) (fun i ->
                Mat.get c (i / rows) (i mod rows))
            in
            Gb_conformance.Compare.fingerprint
              (Genbase.Engine.Singular_values flat))
      in
      let reference = product 1 in
      if product 1 <> reference then
        QCheck.Test.fail_report "1-domain GEMM not deterministic"
      else
        match List.find_opt (fun j -> product j <> reference) [ 2; 3; 4 ] with
        | Some j ->
          QCheck.Test.fail_reportf "GEMM at %d domains diverges bitwise" j
        | None -> true)

let prop_parallel_covariance_conforms =
  QCheck.Test.make ~name:"parallel covariance conforms to sequential"
    ~count:40 arb_cov (fun (rows, cols, seed) ->
      let m = random_mat rows cols seed in
      let gene_ids = Array.init cols Fun.id in
      let payload jobs =
        with_jobs jobs (fun () ->
            Genbase.Qcommon.covariance_of ~gene_ids ~top_fraction:0.5 m)
      in
      let reference = payload 1 in
      (* 1 domain is bitwise stable run-to-run. *)
      if
        Gb_conformance.Compare.fingerprint (payload 1)
        <> Gb_conformance.Compare.fingerprint reference
      then QCheck.Test.fail_report "1-domain covariance not bit-stable"
      else
        let bad =
          List.filter_map
            (fun jobs ->
              let v =
                Gb_conformance.Compare.compare_payload
                  ~tol:Gb_conformance.Compare.approximate ~reference
                  (payload jobs)
              in
              if Gb_conformance.Compare.equivalent v then None
              else Some (jobs, Gb_conformance.Compare.divergence v))
            [ 2; 3; 4 ]
        in
        match bad with
        | [] -> true
        | (jobs, d) :: _ ->
          QCheck.Test.fail_reportf
            "covariance at %d domains diverges by %g under approximate tol"
            jobs d)

let prop_eigen_trace =
  QCheck.Test.make ~name:"dense eigenvalues sum to the trace" ~count:100
    arb_sym (fun (n, seed) ->
      let a = random_sym n seed in
      let trace = ref 0. in
      for i = 0 to n - 1 do
        trace := !trace +. Mat.get a i i
      done;
      let sum = Array.fold_left ( +. ) 0. (Eigen.eigenvalues a) in
      Float.abs (sum -. !trace) /. Float.max 1. (Float.abs !trace) < 1e-9)

(* Mergeable-moment laws behind the streaming covariance maintainer:
   sketching arbitrary batch splits of an arbitrary row permutation and
   merging must agree with the one-shot sketch to 1e-9, and downdating
   (remove_row) must be the inverse of add_row to the same tolerance. *)
module Moments = Gb_linalg.Moments

let arb_sketch =
  QCheck.make
    ~print:(fun (r, c, s) -> Printf.sprintf "%dx%d seed %Ld" r c s)
    QCheck.Gen.(
      int_range 1 8 >>= fun c ->
      int_range 2 40 >>= fun r ->
      seed_gen >|= fun s -> (r, c, s))

let max_abs a b =
  let d = ref 0. in
  Array.iteri (fun i v -> d := Float.max !d (Float.abs (v -. b.(i)))) a;
  !d

let prop_moments_merge_covariance =
  QCheck.Test.make
    ~name:"merged batched-moment covariance == one-shot (splits + permutations)"
    ~count:100 arb_sketch (fun (rows, cols, seed) ->
      let rng = Prng.create seed in
      let m = Mat.random rng rows cols in
      let oneshot = Moments.of_matrix m in
      let perm = Array.init rows Fun.id in
      Prng.shuffle rng perm;
      let merged = ref (Moments.create cols) in
      let batch = ref (Moments.create cols) in
      Array.iter
        (fun i ->
          Moments.add_row !batch (Mat.row m i);
          if Prng.bool rng then begin
            merged := Moments.merge !merged !batch;
            batch := Moments.create cols
          end)
        perm;
      let merged = Moments.merge !merged !batch in
      let d_mean = max_abs (Moments.means merged) (Moments.means oneshot) in
      let d_cov =
        Mat.max_abs_diff (Moments.covariance merged) (Moments.covariance oneshot)
      in
      if d_mean < 1e-9 && d_cov < 1e-9 then true
      else QCheck.Test.fail_reportf "mean %g cov %g" d_mean d_cov)

let prop_moments_downdate =
  QCheck.Test.make ~name:"remove_row inverts add_row" ~count:100 arb_sketch
    (fun (rows, cols, seed) ->
      let rng = Prng.create seed in
      let m = Mat.random rng (rows + 2) cols in
      (* keep at least 2 rows so covariance stays defined *)
      let removed = Array.init rows (fun _ -> Prng.bool rng) in
      let kept =
        Array.of_list
          (List.filteri (fun i _ -> i >= rows || not removed.(i))
             (List.init (rows + 2) Fun.id))
      in
      let sk = Moments.of_matrix m in
      Array.iteri
        (fun i r -> if r then Moments.remove_row sk (Mat.row m i))
        removed;
      let direct = Moments.of_matrix (Mat.sub_rows m kept) in
      let d = Mat.max_abs_diff (Moments.covariance sk) (Moments.covariance direct) in
      if d < 1e-9 then true else QCheck.Test.fail_reportf "cov diff %g" d)

(* --- ported kernels vs their accessor-based originals, bit for bit ---

   The QR, tridiagonal QL and Cheng–Church loops index [Mat.data]
   directly and walk rows contiguously. [Ref] keeps the column-at-a-time
   loops they replaced, written through the [Mat] accessors, as the
   reference: every output element must see the same floating-point
   operations in the same order, so the results must agree in every
   bit. CI's second pass runs these at four domains. *)
module Tridiag = Gb_linalg.Tridiag
module Cheng_church = Gb_bicluster.Cheng_church

module Ref = struct
  let qr src =
    let m, n = Mat.dims src in
    let a = Mat.copy src in
    let betas = Array.make n 0. in
    for j = 0 to n - 1 do
      let sigma = ref 0. in
      for i = j to m - 1 do
        let v = Mat.get a i j in
        sigma := !sigma +. (v *. v)
      done;
      let norm = sqrt !sigma in
      if norm > 0. then begin
        let ajj = Mat.get a j j in
        let alpha = if ajj >= 0. then -.norm else norm in
        let v0 = ajj -. alpha in
        betas.(j) <- -.v0 /. alpha;
        for i = j + 1 to m - 1 do
          Mat.set a i j (Mat.get a i j /. v0)
        done;
        Mat.set a j j alpha;
        for k = j + 1 to n - 1 do
          let dot = ref (Mat.get a j k) in
          for i = j + 1 to m - 1 do
            dot := !dot +. (Mat.get a i j *. Mat.get a i k)
          done;
          let s = betas.(j) *. !dot in
          Mat.set a j k (Mat.get a j k -. s);
          for i = j + 1 to m - 1 do
            Mat.set a i k (Mat.get a i k -. (s *. Mat.get a i j))
          done
        done
      end
    done;
    (a, betas)

  let reflect (a, betas) j b =
    if betas.(j) <> 0. then begin
      let m = Mat.(a.rows) in
      let dot = ref b.(j) in
      for i = j + 1 to m - 1 do
        dot := !dot +. (Mat.get a i j *. b.(i))
      done;
      let s = betas.(j) *. !dot in
      b.(j) <- b.(j) -. s;
      for i = j + 1 to m - 1 do
        b.(i) <- b.(i) -. (s *. Mat.get a i j)
      done
    end

  let r (a, _) =
    let n = Mat.(a.cols) in
    Mat.init n n (fun i j -> if j >= i then Mat.get a i j else 0.)

  let q ((a, _) as f) =
    let m, n = Mat.dims a in
    let out = Mat.create m n in
    for k = 0 to n - 1 do
      let e = Array.make m 0. in
      e.(k) <- 1.;
      for j = n - 1 downto 0 do
        reflect f j e
      done;
      Array.iteri (fun i v -> Mat.set out i k v) e
    done;
    out

  let solve ((a, _) as f) b =
    let n = Mat.(a.cols) in
    let y = Array.copy b in
    for j = 0 to n - 1 do
      reflect f j y
    done;
    let x = Array.make n 0. in
    for i = n - 1 downto 0 do
      let acc = ref y.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (Mat.get a i j *. x.(j))
      done;
      let d = Mat.get a i i in
      if Float.abs d < 1e-12 then failwith "Qr.solve: rank deficient";
      x.(i) <- !acc /. d
    done;
    x

  (* tql2 accumulating rotations into columns of z, then a column sort. *)
  let tridiag_eigen diag offdiag =
    let n = Array.length diag in
    let d = Array.copy diag in
    let z = Mat.identity n in
    if n > 0 then begin
      let e = Array.append offdiag [| 0. |] in
      for l = 0 to n - 1 do
        let iter = ref 0 in
        let continue_outer = ref true in
        while !continue_outer do
          let m = ref l in
          let found = ref false in
          while (not !found) && !m < n - 1 do
            let dd = Float.abs d.(!m) +. Float.abs d.(!m + 1) in
            if Float.abs e.(!m) <= epsilon_float *. dd then found := true
            else incr m
          done;
          if !m = l then continue_outer := false
          else begin
            incr iter;
            if !iter > 50 then failwith "Tridiag: no convergence";
            let m = !m in
            let g = (d.(l + 1) -. d.(l)) /. (2. *. e.(l)) in
            let r = Float.hypot g 1. in
            let g' =
              d.(m) -. d.(l)
              +. (e.(l)
                 /. (g +. if g >= 0. then Float.abs r else -.Float.abs r))
            in
            let s = ref 1. and c = ref 1. and p = ref 0. in
            let g = ref g' in
            try
              for i = m - 1 downto l do
                let f = !s *. e.(i) in
                let b = !c *. e.(i) in
                let r = Float.hypot f !g in
                e.(i + 1) <- r;
                if r = 0. then begin
                  d.(i + 1) <- d.(i + 1) -. !p;
                  e.(m) <- 0.;
                  raise Exit
                end;
                s := f /. r;
                c := !g /. r;
                let g2 = d.(i + 1) -. !p in
                let r2 = ((d.(i) -. g2) *. !s) +. (2. *. !c *. b) in
                p := !s *. r2;
                d.(i + 1) <- g2 +. !p;
                g := (!c *. r2) -. b;
                for k = 0 to n - 1 do
                  let f = Mat.get z k (i + 1) in
                  Mat.set z k (i + 1) ((!s *. Mat.get z k i) +. (!c *. f));
                  Mat.set z k i ((!c *. Mat.get z k i) -. (!s *. f))
                done
              done;
              d.(l) <- d.(l) -. !p;
              e.(l) <- !g;
              e.(m) <- 0.
            with Exit -> ()
          end
        done
      done
    end;
    let idx = Gb_util.Order.argsort ~descending:true d in
    (Array.map (fun i -> d.(i)) idx, Mat.init n n (fun r c -> Mat.get z r idx.(c)))

  (* The mask-scanning MSR sweep. *)
  let msr m rows cols =
    let nr, nc = Mat.dims m in
    let row_in = Array.make nr false and col_in = Array.make nc false in
    Array.iter (fun i -> row_in.(i) <- true) rows;
    Array.iter (fun j -> col_in.(j) <- true) cols;
    let row_means = Array.make nr 0. and col_means = Array.make nc 0. in
    let total = ref 0. in
    for i = 0 to nr - 1 do
      if row_in.(i) then
        for j = 0 to nc - 1 do
          if col_in.(j) then begin
            let v = Mat.get m i j in
            row_means.(i) <- row_means.(i) +. v;
            col_means.(j) <- col_means.(j) +. v;
            total := !total +. v
          end
        done
    done;
    let fr = float_of_int (Array.length cols)
    and fc = float_of_int (Array.length rows) in
    Array.iteri (fun i b -> if b then row_means.(i) <- row_means.(i) /. fr) row_in;
    Array.iteri (fun j b -> if b then col_means.(j) <- col_means.(j) /. fc) col_in;
    let all_mean = !total /. (fr *. fc) in
    let acc = ref 0. in
    for i = 0 to nr - 1 do
      if row_in.(i) then
        for j = 0 to nc - 1 do
          if col_in.(j) then begin
            let r = Mat.get m i j -. row_means.(i) -. col_means.(j) +. all_mean in
            acc := !acc +. (r *. r)
          end
        done
    done;
    !acc /. (fr *. fc)
end

let bits x = Int64.bits_of_float x
let vec_bits v = Array.map bits v
let mat_bits m = Array.map vec_bits (Mat.to_arrays m)

let result f = match f () with v -> Ok v | exception Failure e -> Error e

(* Shapes with m >= n, biased towards the edges: n = 1, m = n, and an
   optional all-zero column (a zero reflector, and a rank-deficient
   solve). *)
let arb_qr =
  QCheck.make
    ~print:(fun (m, n, z, s) ->
      Printf.sprintf "%dx%d zero col %s seed %Ld" m n
        (match z with Some j -> string_of_int j | None -> "none")
        s)
    QCheck.Gen.(
      frequency [ (1, return 1); (4, int_range 1 12) ] >>= fun n ->
      frequency [ (1, return n); (3, int_range n 30) ] >>= fun m ->
      opt (int_range 0 (n - 1)) >>= fun z ->
      seed_gen >|= fun s -> (m, n, z, s))

let prop_qr_bitwise =
  QCheck.Test.make ~name:"QR r/q/solve bitwise-match the accessor loops"
    ~count:100 arb_qr (fun (m, n, z, seed) ->
      let a = random_mat m n seed in
      Option.iter (fun j -> for i = 0 to m - 1 do Mat.set a i j 0. done) z;
      let b = Array.init m (fun i -> Float.of_int (i + 1) /. 7.) in
      let f = Qr.factorize a and g = Ref.qr a in
      let solve_bits f = Result.map vec_bits (result f) in
      if mat_bits (Qr.r f) <> mat_bits (Ref.r g) then
        QCheck.Test.fail_report "R differs"
      else if mat_bits (Qr.q f) <> mat_bits (Ref.q g) then
        QCheck.Test.fail_report "Q differs"
      else if
        solve_bits (fun () -> Qr.solve f b)
        <> solve_bits (fun () -> Ref.solve g b)
      then QCheck.Test.fail_report "solve differs"
      else true)

(* Tridiagonals with occasional exact zeros off the diagonal, which
   split the matrix and take the [r = 0] exit of the QL sweep. *)
let arb_tridiag =
  QCheck.make
    ~print:(fun (n, s) -> Printf.sprintf "n=%d seed %Ld" n s)
    QCheck.Gen.(pair (frequency [ (1, return 1); (4, int_range 1 40) ]) seed_gen)

let prop_tridiag_bitwise =
  QCheck.Test.make ~name:"Tridiag.eigen bitwise-matches the column loops"
    ~count:100 arb_tridiag (fun (n, seed) ->
      let g = Prng.create seed in
      let d = Array.init n (fun _ -> Prng.normal g) in
      let e =
        Array.init (n - 1) (fun _ ->
            if Prng.int g 5 = 0 then 0. else Prng.normal g)
      in
      let res f = Result.map (fun (v, m) -> (vec_bits v, mat_bits m)) (result f) in
      if res (fun () -> Tridiag.eigen d e) = res (fun () -> Ref.tridiag_eigen d e)
      then true
      else QCheck.Test.fail_report "eigenpairs differ")

let arb_msr =
  QCheck.make
    ~print:(fun (r, c, s) -> Printf.sprintf "%dx%d seed %Ld" r c s)
    QCheck.Gen.(
      int_range 1 20 >>= fun r ->
      int_range 1 20 >>= fun c ->
      seed_gen >|= fun s -> (r, c, s))

(* A random non-empty subset of [0, n), in shuffled order. *)
let subset g n =
  let all = Array.init n Fun.id in
  Prng.shuffle g all;
  Array.sub all 0 (1 + Prng.int g n)

let prop_msr_bitwise =
  QCheck.Test.make
    ~name:"Cheng-Church MSR bitwise-matches the mask-scanning sweep"
    ~count:200 arb_msr (fun (r, c, seed) ->
      let g = Prng.create seed in
      let m = Mat.random g r c in
      let rows = subset g r and cols = subset g c in
      let got = Cheng_church.mean_squared_residue m rows cols in
      let want = Ref.msr m rows cols in
      if bits got = bits want then true
      else QCheck.Test.fail_reportf "msr %h vs %h" got want)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_qr_orthogonal;
      prop_qr_reproduces;
      prop_svd_reconstructs;
      prop_svd_descending;
      prop_lanczos_matches_dense;
      prop_eigen_trace;
      prop_parallel_gemm_bitwise;
      prop_parallel_covariance_conforms;
      prop_moments_merge_covariance;
      prop_moments_downdate;
      prop_qr_bitwise;
      prop_tridiag_bitwise;
      prop_msr_bitwise;
    ]
