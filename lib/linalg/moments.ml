(* Mergeable second-moment sketches.

   Invariant: [mean] holds the column means of every row added so far
   and [m2] the centered co-moments [sum (x - mean)(x - mean)^T], both
   exact up to float rounding. Welford's rank-1 form keeps the update
   numerically stable (no catastrophic cancellation of raw sums), and
   Chan's pairwise rule makes sketches over disjoint row sets merge into
   exactly the sketch of the union — the property the streaming
   maintainers and the qcheck batching laws lean on. *)

module A = Bigarray.Array1

type t = {
  d : int;
  mutable n : int;
  mean : float array;
  mutable m2 : Mat.t; (* d x d, symmetric *)
}

let create d = { d; n = 0; mean = Array.make d 0.0; m2 = Mat.create d d }

let dim t = t.d
let count t = t.n

let copy t =
  { d = t.d; n = t.n; mean = Array.copy t.mean; m2 = Mat.copy t.m2 }

let check_dim t row =
  if Array.length row <> t.d then
    invalid_arg
      (Printf.sprintf "Moments: row has %d columns, sketch has %d"
         (Array.length row) t.d)

(* [m2 += u v^T] when [add], else [m2 -= u v^T], row by row over the
   flat d x d buffer. *)
let rank1 ~add m2 u v =
  let d = Array.length u and data = m2.Mat.data in
  for i = 0 to d - 1 do
    let ui = Array.unsafe_get u i and base = i * d in
    for j = 0 to d - 1 do
      let p = base + j in
      let x = A.unsafe_get data p and uv = ui *. Array.unsafe_get v j in
      A.unsafe_set data p (if add then x +. uv else x -. uv)
    done
  done

(* Rank-1 update: mean' = mean + delta/n', and
   M2 += (x - mean) (x - mean')^T using the pre- and post-update
   deviations (the asymmetric form is exact, not an approximation). *)
let add_row t row =
  check_dim t row;
  let d = t.d in
  let n' = t.n + 1 in
  let delta = Array.make d 0.0 in
  let post = Array.make d 0.0 in
  for j = 0 to d - 1 do
    delta.(j) <- row.(j) -. t.mean.(j);
    t.mean.(j) <- t.mean.(j) +. (delta.(j) /. float_of_int n');
    post.(j) <- row.(j) -. t.mean.(j)
  done;
  rank1 ~add:true t.m2 delta post;
  t.n <- n'

(* Exact inverse of [add_row]: recover the pre-update mean, then
   subtract the same asymmetric outer product. *)
let remove_row t row =
  check_dim t row;
  if t.n < 1 then invalid_arg "Moments.remove_row: empty sketch";
  let d = t.d in
  let n' = t.n - 1 in
  if n' = 0 then begin
    Array.fill t.mean 0 d 0.0;
    Mat.fill t.m2 0.0;
    t.n <- 0
  end
  else begin
    let delta = Array.make d 0.0 in
    let post = Array.make d 0.0 in
    (* post = x - mean_n (deviation from the current mean);
       mean_old = (n * mean - x) / (n - 1); delta = x - mean_old.
       The added product was (x - mean_old)(x - mean_n)^T — subtract
       exactly that, not delta delta^T (which overshoots by n/(n-1)). *)
    for j = 0 to d - 1 do
      post.(j) <- row.(j) -. t.mean.(j);
      let mean_old =
        ((float_of_int t.n *. t.mean.(j)) -. row.(j)) /. float_of_int n'
      in
      delta.(j) <- row.(j) -. mean_old;
      t.mean.(j) <- mean_old
    done;
    rank1 ~add:false t.m2 delta post;
    t.n <- n'
  end

let merge a b =
  if a.d <> b.d then invalid_arg "Moments.merge: dimension mismatch";
  if a.n = 0 then copy b
  else if b.n = 0 then copy a
  else begin
    let d = a.d in
    let na = float_of_int a.n and nb = float_of_int b.n in
    let nab = na +. nb in
    let out = create d in
    out.n <- a.n + b.n;
    let delta = Array.make d 0.0 in
    for j = 0 to d - 1 do
      delta.(j) <- b.mean.(j) -. a.mean.(j);
      out.mean.(j) <- a.mean.(j) +. (delta.(j) *. nb /. nab)
    done;
    let w = na *. nb /. nab in
    let ad = a.m2.Mat.data and bd = b.m2.Mat.data and od = out.m2.Mat.data in
    for i = 0 to d - 1 do
      let wi = w *. delta.(i) and base = i * d in
      for j = 0 to d - 1 do
        let p = base + j in
        A.unsafe_set od p
          (A.unsafe_get ad p +. A.unsafe_get bd p +. (wi *. delta.(j)))
      done
    done;
    out
  end

let of_matrix m =
  let rows, d = Mat.dims m in
  let t = create d in
  if rows > 0 then begin
    let mean = Mat.col_means m in
    Array.blit mean 0 t.mean 0 d;
    t.m2 <- Blas.ata (Mat.center_cols m);
    t.n <- rows
  end;
  t

let means t = Array.copy t.mean
let m2 t = Mat.copy t.m2

let covariance t =
  if t.n < 2 then invalid_arg "Moments.covariance: need at least two rows";
  Mat.scale (1.0 /. float_of_int (t.n - 1)) t.m2

type regression = {
  intercept : float;
  coefficients : float array;
  r_squared : float;
}

(* Centered normal equations: with y the last column,
   M2_xx b = M2_xy, intercept = mean_y - b . mean_x,
   ss_res = M2_yy - b . M2_xy, R^2 = 1 - ss_res / M2_yy.
   The 1/(n-1) scale cancels, so we solve on M2 directly. *)
let regression t =
  let d = t.d - 1 in
  if d < 1 then invalid_arg "Moments.regression: need a predictor column";
  if t.n <= t.d then
    invalid_arg "Moments.regression: need more rows than columns";
  let m2xx = Mat.create d d in
  let src = t.m2.Mat.data and dst = m2xx.Mat.data in
  for i = 0 to d - 1 do
    for j = 0 to d - 1 do
      A.unsafe_set dst ((i * d) + j) (A.unsafe_get src ((i * t.d) + j))
    done
  done;
  let m2xy = Array.init d (fun i -> A.get src ((i * t.d) + d)) in
  let beta = Solve.cholesky m2xx m2xy in
  let intercept = ref t.mean.(d) in
  for j = 0 to d - 1 do
    intercept := !intercept -. (beta.(j) *. t.mean.(j))
  done;
  let ss_tot = A.get src ((d * t.d) + d) in
  let ss_res =
    let s = ref ss_tot in
    for j = 0 to d - 1 do
      s := !s -. (beta.(j) *. m2xy.(j))
    done;
    !s
  in
  let r_squared = if ss_tot <= 0.0 then 1.0 else 1.0 -. (ss_res /. ss_tot) in
  { intercept = !intercept; coefficients = beta; r_squared }
