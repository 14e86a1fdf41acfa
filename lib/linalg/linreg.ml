module A = Bigarray.Array1

type model = {
  intercept : float;
  coefficients : float array;
  r_squared : float;
  residual_norm : float;
}

let with_intercept x =
  let m, n = Mat.dims x in
  let xa = Mat.create m (n + 1) in
  let src = x.Mat.data and dst = xa.Mat.data in
  for i = 0 to m - 1 do
    let base = i * (n + 1) in
    A.unsafe_set dst base 1.;
    for j = 0 to n - 1 do
      A.unsafe_set dst (base + 1 + j) (A.unsafe_get src ((i * n) + j))
    done
  done;
  xa

let assess x y intercept coef =
  let m, n = Mat.dims x in
  let data = x.Mat.data in
  let mean_y = Vec.mean y in
  let ss_tot = ref 0. and ss_res = ref 0. in
  for i = 0 to m - 1 do
    let base = i * n in
    let pred = ref intercept in
    for j = 0 to Array.length coef - 1 do
      pred := !pred +. (coef.(j) *. A.unsafe_get data (base + j))
    done;
    let r = y.(i) -. !pred in
    ss_res := !ss_res +. (r *. r);
    let d = y.(i) -. mean_y in
    ss_tot := !ss_tot +. (d *. d)
  done;
  let r2 = if !ss_tot = 0. then 1. else 1. -. (!ss_res /. !ss_tot) in
  (r2, sqrt !ss_res)

let fit x y =
  let m, n = Mat.dims x in
  if Array.length y <> m then invalid_arg "Linreg.fit: length";
  if m <= n then invalid_arg "Linreg.fit: underdetermined";
  Gb_obs.Profile.with_ ~cat:"kernel" ~name:"linreg.fit"
    ~attrs:[ ("rows", Gb_obs.Obs.Int m); ("cols", Gb_obs.Obs.Int n) ]
  @@ fun () ->
  let xa = with_intercept x in
  let beta = Qr.least_squares xa y in
  let intercept = beta.(0) in
  let coefficients = Array.sub beta 1 n in
  let r_squared, residual_norm = assess x y intercept coefficients in
  { intercept; coefficients; r_squared; residual_norm }


let fit_normal_equations x y =
  let m, n = Mat.dims x in
  if Array.length y <> m then invalid_arg "Linreg.fit_normal_equations: length";
  if m <= n then invalid_arg "Linreg.fit_normal_equations: underdetermined";
  Gb_obs.Profile.with_ ~cat:"kernel" ~name:"linreg.normal_equations"
    ~attrs:[ ("rows", Gb_obs.Obs.Int m); ("cols", Gb_obs.Obs.Int n) ]
  @@ fun () ->
  let xa = with_intercept x in
  let xtx = Blas.ata xa in
  let xty = Blas.gemv_t xa y in
  let beta = Solve.cholesky xtx xty in
  let intercept = beta.(0) in
  let coefficients = Array.sub beta 1 n in
  let r_squared, residual_norm = assess x y intercept coefficients in
  { intercept; coefficients; r_squared; residual_norm }

let predict m row =
  if Array.length row <> Array.length m.coefficients then
    invalid_arg "Linreg.predict: length";
  m.intercept +. Vec.dot m.coefficients row
