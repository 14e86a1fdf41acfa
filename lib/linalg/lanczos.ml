module A = Bigarray.Array1

type result = {
  eigenvalues : float array;
  eigenvectors : Mat.t;
  iterations : int;
}

(* One full-reorthogonalization Lanczos sweep building at most [max_iter]
   basis vectors, then a Ritz extraction from the tridiagonal matrix. *)
let iters = Gb_obs.Telemetry.counter ~help:"iteration" "linalg_lanczos_iters"

let symmetric ?rng ?max_iter ?(tol = 1e-10) ~n ~k apply =
  if k <= 0 || k > n then invalid_arg "Lanczos.symmetric: bad k";
  Gb_obs.Profile.with_ ~cat:"kernel" ~name:"lanczos.symmetric"
    ~attrs:[ ("n", Gb_obs.Obs.Int n); ("k", Gb_obs.Obs.Int k) ]
  @@ fun () ->
  let rng =
    match rng with Some r -> r | None -> Gb_util.Prng.create 0x1a2c05L
  in
  let max_iter =
    match max_iter with Some m -> min m n | None -> min n (max (3 * k) (k + 20))
  in
  let basis = Array.make max_iter [||] in
  let alphas = Array.make max_iter 0. in
  let betas = Array.make max_iter 0. in
  let v = Array.init n (fun _ -> Gb_util.Prng.normal rng) in
  let v = Vec.normalize v in
  basis.(0) <- v;
  let m = ref 0 in
  (try
     for j = 0 to max_iter - 1 do
       (* Raises Timeout, not Exit, so it escapes the early-exit
          handler below and cancels the whole sweep. *)
       Gb_util.Deadline.Ambient.checkpoint ();
       m := j + 1;
       let w = apply basis.(j) in
       if Array.length w <> n then invalid_arg "Lanczos: operator dimension";
       let alpha = Vec.dot w basis.(j) in
       alphas.(j) <- alpha;
       Vec.axpy (-.alpha) basis.(j) w;
       if j > 0 then Vec.axpy (-.betas.(j - 1)) basis.(j - 1) w;
       (* Full reorthogonalization against all previous basis vectors. *)
       for i = 0 to j do
         let c = Vec.dot w basis.(i) in
         Vec.axpy (-.c) basis.(i) w
       done;
       let beta = Vec.nrm2 w in
       if j + 1 < max_iter then begin
         if beta < tol then raise Exit;
         betas.(j) <- beta;
         basis.(j + 1) <- Vec.scale (1. /. beta) w
       end
     done
   with Exit -> ());
  let m = !m in
  Gb_obs.Telemetry.add iters m;
  let diag = Array.sub alphas 0 m in
  let off = Array.sub betas 0 (max 0 (m - 1)) in
  let values, vectors = Tridiag.eigen diag off in
  let k = min k m in
  let eigenvalues = Array.sub values 0 k in
  (* Ritz vectors: columns of V * S for the top-k columns of S. Each
     output row accumulates in place over i ascending, adding basis_i[row]
     times the first k entries of row i of S, so every element is the
     same i-ascending sum as a per-element dot product. *)
  let eigenvectors = Mat.create n k in
  let out = eigenvectors.Mat.data and s = vectors.Mat.data in
  for row = 0 to n - 1 do
    let base = row * k in
    for i = 0 to m - 1 do
      let b = basis.(i).(row) and si = i * m in
      for col = 0 to k - 1 do
        A.unsafe_set out (base + col)
          (A.unsafe_get out (base + col) +. (b *. A.unsafe_get s (si + col)))
      done
    done
  done;
  { eigenvalues; eigenvectors; iterations = m }

let top_eigen ?rng a k =
  let n, n2 = Mat.dims a in
  if n <> n2 then invalid_arg "Lanczos.top_eigen: not square";
  symmetric ?rng ~n ~k (fun v -> Blas.gemv a v)
