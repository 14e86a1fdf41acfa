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
  let betas = Array.make n 0. in
  for j = 0 to n - 1 do
    Gb_util.Deadline.Ambient.checkpoint ();
    (* Norm of the trailing part of column j. *)
    let sigma = ref 0. in
    for i = j to m - 1 do
      let v = Mat.unsafe_get a i j in
      sigma := !sigma +. (v *. v)
    done;
    let norm = sqrt !sigma in
    if norm > 0. then begin
      let ajj = Mat.unsafe_get a j j in
      let alpha = if ajj >= 0. then -.norm else norm in
      let v0 = ajj -. alpha in
      (* With the tail scaled by 1/v0 so v[j] = 1, the reflector scaling is
         beta = 2/(v'v') = -v0/alpha. *)
      betas.(j) <- -.v0 /. alpha;
      (* Scale the tail so v[j] = 1 is implicit. *)
      for i = j + 1 to m - 1 do
        Mat.unsafe_set a i j (Mat.unsafe_get a i j /. v0)
      done;
      Mat.unsafe_set a j j alpha;
      (* Apply H_j to the remaining columns. Each trailing column k only
         reads the (frozen) reflector column j and writes itself, so the
         panel update partitions over k; per-column arithmetic is
         unchanged by the partition, keeping the factorization bitwise
         identical at any domain count. *)
      Gb_par.Pool.parallel_for ~grain:8 ~lo:(j + 1) ~hi:n (fun k_lo k_hi ->
          for k = k_lo to k_hi - 1 do
            let dot = ref (Mat.unsafe_get a j k) in
            for i = j + 1 to m - 1 do
              dot := !dot +. (Mat.unsafe_get a i j *. Mat.unsafe_get a i k)
            done;
            let s = betas.(j) *. !dot in
            Mat.unsafe_set a j k (Mat.unsafe_get a j k -. s);
            for i = j + 1 to m - 1 do
              Mat.unsafe_set a i k
                (Mat.unsafe_get a i k -. (s *. Mat.unsafe_get a i j))
            done
          done)
    end
  done;
  { a; betas; m; n }

let r t =
  Mat.init t.n t.n (fun i j -> if j >= i then Mat.get t.a i j else 0.)

(* Apply Q^T (the product of reflectors) to a length-m vector in place. *)
let apply_qt t b =
  for j = 0 to t.n - 1 do
    if t.betas.(j) <> 0. then begin
      let dot = ref b.(j) in
      for i = j + 1 to t.m - 1 do
        dot := !dot +. (Mat.unsafe_get t.a i j *. b.(i))
      done;
      let s = t.betas.(j) *. !dot in
      b.(j) <- b.(j) -. s;
      for i = j + 1 to t.m - 1 do
        b.(i) <- b.(i) -. (s *. Mat.unsafe_get t.a i j)
      done
    end
  done

(* Apply Q to a length-m vector in place (reflectors in reverse order). *)
let apply_q t b =
  for j = t.n - 1 downto 0 do
    if t.betas.(j) <> 0. then begin
      let dot = ref b.(j) in
      for i = j + 1 to t.m - 1 do
        dot := !dot +. (Mat.unsafe_get t.a i j *. b.(i))
      done;
      let s = t.betas.(j) *. !dot in
      b.(j) <- b.(j) -. s;
      for i = j + 1 to t.m - 1 do
        b.(i) <- b.(i) -. (s *. Mat.unsafe_get t.a i j)
      done
    end
  done

(* Columns of Q are independent applications of the reflectors to basis
   vectors; each lane keeps a private scratch vector and owns its output
   columns. *)
let q t =
  let out = Mat.create t.m t.n in
  Gb_par.Pool.parallel_for ~grain:8 ~lo:0 ~hi:t.n (fun k_lo k_hi ->
      let e = Array.make t.m 0. in
      for k = k_lo to k_hi - 1 do
        Array.fill e 0 t.m 0.;
        e.(k) <- 1.;
        apply_q t e;
        for i = 0 to t.m - 1 do
          Mat.unsafe_set out i k e.(i)
        done
      done);
  out

let solve t b =
  if Array.length b <> t.m then invalid_arg "Qr.solve: length";
  let y = Array.copy b in
  apply_qt t y;
  let x = Array.make t.n 0. in
  for i = t.n - 1 downto 0 do
    let acc = ref y.(i) in
    for j = i + 1 to t.n - 1 do
      acc := !acc -. (Mat.unsafe_get t.a i j *. x.(j))
    done;
    let d = Mat.unsafe_get t.a i i in
    if Float.abs d < 1e-12 then failwith "Qr.solve: rank deficient";
    x.(i) <- !acc /. d
  done;
  x

let least_squares a b = solve (factorize a) b
