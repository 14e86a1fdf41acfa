module A = Bigarray.Array1

type t = {
  a : Mat.t; (* R in the upper triangle, reflector tails below it *)
  betas : float array; (* per-column Householder scaling factors *)
  m : int;
  n : int;
}

let flops = Gb_obs.Telemetry.counter ~help:"flop" "linalg_flops"

(* Column j of [a] below the diagonal stores v_j (with v_j[j] implicitly 1);
   H_j = I - beta_j v_j v_j^T. *)
let factorize src =
  let m, n = Mat.dims src in
  if m < n then invalid_arg "Qr.factorize: rows < cols";
  let fm = float_of_int m and fn = float_of_int n in
  Gb_obs.Telemetry.addf flops
    ((2. *. fm *. fn *. fn) -. (2. /. 3. *. fn *. fn *. fn));
  Gb_obs.Profile.with_ ~cat:"kernel" ~name:"qr.factorize"
    ~attrs:[ ("rows", Gb_obs.Obs.Int m); ("cols", Gb_obs.Obs.Int n) ]
  @@ fun () ->
  let a = Mat.copy src in
  let d = a.Mat.data in
  let betas = Array.make n 0. in
  (* dots.(k) holds column k's reflector dot product, then its scale s_k;
     each lane touches only its own band of k. *)
  let dots = Array.make n 0. in
  for j = 0 to n - 1 do
    Gb_util.Deadline.Ambient.checkpoint ();
    (* Norm of the trailing part of column j. *)
    let sigma = ref 0. in
    for i = j to m - 1 do
      let v = A.unsafe_get d ((i * n) + j) in
      sigma := !sigma +. (v *. v)
    done;
    let norm = sqrt !sigma in
    if norm > 0. then begin
      let row_j = j * n in
      let ajj = A.unsafe_get d (row_j + j) in
      let alpha = if ajj >= 0. then -.norm else norm in
      let v0 = ajj -. alpha in
      (* With the tail scaled by 1/v0 so v[j] = 1, the reflector scaling is
         beta = 2/(v'v') = -v0/alpha. *)
      let beta = -.v0 /. alpha in
      betas.(j) <- beta;
      (* Scale the tail so v[j] = 1 is implicit. *)
      for i = j + 1 to m - 1 do
        let p = (i * n) + j in
        A.unsafe_set d p (A.unsafe_get d p /. v0)
      done;
      A.unsafe_set d (row_j + j) alpha;
      (* Apply H_j to the remaining columns as two sweeps down the rows,
         so every inner loop walks a contiguous run of row i:
           dot_k = a[j][k] + sum_{i>j} a[i][j] a[i][k]   (i ascending)
           s_k = beta dot_k;  a[j][k] -= s_k;  a[i][k] -= s_k a[i][j].
         Each element sees the operations of a column-at-a-time update
         in the same order, so the loop order moves no bits. Column k
         only reads the frozen reflector column j and writes itself, so
         the update partitions over k, bitwise identical at any domain
         count; Pool.grain_for keeps regions too small to repay a fork-join
         inline. *)
      Gb_par.Pool.parallel_for
        ~grain:(Gb_par.Pool.grain_for ~work_per_index:(2 * (m - j)))
        ~lo:(j + 1) ~hi:n
        (fun k_lo k_hi ->
          for k = k_lo to k_hi - 1 do
            Array.unsafe_set dots k (A.unsafe_get d (row_j + k))
          done;
          for i = j + 1 to m - 1 do
            let base = i * n in
            let aij = A.unsafe_get d (base + j) in
            for k = k_lo to k_hi - 1 do
              Array.unsafe_set dots k
                (Array.unsafe_get dots k +. (aij *. A.unsafe_get d (base + k)))
            done
          done;
          for k = k_lo to k_hi - 1 do
            let s = beta *. Array.unsafe_get dots k in
            Array.unsafe_set dots k s;
            A.unsafe_set d (row_j + k) (A.unsafe_get d (row_j + k) -. s)
          done;
          for i = j + 1 to m - 1 do
            let base = i * n in
            let aij = A.unsafe_get d (base + j) in
            for k = k_lo to k_hi - 1 do
              A.unsafe_set d (base + k)
                (A.unsafe_get d (base + k) -. (Array.unsafe_get dots k *. aij))
            done
          done)
    end
  done;
  { a; betas; m; n }

let r t =
  let n = t.n in
  let out = Mat.create n n in
  let src = t.a.Mat.data and dst = out.Mat.data in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      A.unsafe_set dst ((i * n) + j) (A.unsafe_get src ((i * n) + j))
    done
  done;
  out

(* Apply reflector H_j to a length-m vector in place. *)
let reflect t j b =
  let beta = t.betas.(j) in
  if beta <> 0. then begin
    let d = t.a.Mat.data and n = t.n in
    let dot = ref b.(j) in
    for i = j + 1 to t.m - 1 do
      dot := !dot +. (A.unsafe_get d ((i * n) + j) *. b.(i))
    done;
    let s = beta *. !dot in
    b.(j) <- b.(j) -. s;
    for i = j + 1 to t.m - 1 do
      b.(i) <- b.(i) -. (s *. A.unsafe_get d ((i * n) + j))
    done
  end

(* Apply Q^T (the product of reflectors) to a length-m vector in place. *)
let apply_qt t b =
  for j = 0 to t.n - 1 do
    reflect t j b
  done

(* Apply Q to a length-m vector in place (reflectors in reverse order). *)
let apply_q t b =
  for j = t.n - 1 downto 0 do
    reflect t j b
  done

(* Columns of Q are independent applications of the reflectors to basis
   vectors; each lane keeps a private scratch vector and owns its output
   columns. *)
let q t =
  let out = Mat.create t.m t.n in
  let dst = out.Mat.data in
  Gb_par.Pool.parallel_for ~grain:8 ~lo:0 ~hi:t.n (fun k_lo k_hi ->
      let e = Array.make t.m 0. in
      for k = k_lo to k_hi - 1 do
        Array.fill e 0 t.m 0.;
        e.(k) <- 1.;
        apply_q t e;
        for i = 0 to t.m - 1 do
          A.unsafe_set dst ((i * t.n) + k) e.(i)
        done
      done);
  out

let solve t b =
  if Array.length b <> t.m then invalid_arg "Qr.solve: length";
  let y = Array.copy b in
  apply_qt t y;
  let d = t.a.Mat.data and n = t.n in
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let row = i * n in
    let acc = ref y.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (A.unsafe_get d (row + j) *. x.(j))
    done;
    let dii = A.unsafe_get d (row + i) in
    if Float.abs dii < 1e-12 then failwith "Qr.solve: rank deficient";
    x.(i) <- !acc /. dii
  done;
  x

let least_squares a b = solve (factorize a) b
