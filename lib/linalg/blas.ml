module A = Bigarray.Array1
module Pool = Gb_par.Pool

let flops = Gb_obs.Telemetry.counter ~help:"flop" "linalg_flops"
let fi = float_of_int

(* Parallelism notes. Every kernel below runs on the shared Domain pool
   via [Pool.parallel_for]; with one domain (the default) that call
   collapses to a single inline invocation of the body over the whole
   range — the exact sequential loops this file has always had, bitwise.

   Every kernel here partitions over its *output* elements (rows of C
   for gemv/gemm/aat, output rows for atb/ata, output columns for
   gemv_t), keeping each element's accumulation order fixed regardless
   of the partition — so results are bitwise identical to sequential at
   ANY domain count, and the golden digests never move. A tree reduction
   over chunks would reassociate float sums, so no kernel uses one.

   gemv and gemv_t size their grain from the work per index
   ([Pool.grain_for]): a product too small to repay a fork-join — the
   Lanczos operator on Medium is ~112k multiply-adds — runs inline. *)

let gemv (m : Mat.t) x =
  if Array.length x <> m.cols then invalid_arg "Blas.gemv: dimension";
  Gb_obs.Telemetry.addf flops (2. *. fi m.rows *. fi m.cols);
  let y = Array.make m.rows 0. in
  let data = m.data in
  Pool.parallel_for ~grain:(Pool.grain_for ~work_per_index:m.cols) ~lo:0
    ~hi:m.rows (fun r_lo r_hi ->
      for i = r_lo to r_hi - 1 do
        let base = i * m.cols in
        let acc = ref 0. in
        for j = 0 to m.cols - 1 do
          acc := !acc +. (A.unsafe_get data (base + j) *. Array.unsafe_get x j)
        done;
        y.(i) <- !acc
      done);
  y

(* y <- A^T x. Sequentially this is a sum of scaled rows; splitting the
   row loop would reassociate each y[j]'s sum. Instead each lane owns a
   band of output columns and runs the row loop itself — every y[j]
   still accumulates its terms in i-ascending order, so the result is
   bitwise independent of the domain count, and one lane over the whole
   column range is the original kernel. *)
let gemv_t (m : Mat.t) x =
  if Array.length x <> m.rows then invalid_arg "Blas.gemv_t: dimension";
  Gb_obs.Telemetry.addf flops (2. *. fi m.rows *. fi m.cols);
  let y = Array.make m.cols 0. in
  let data = m.data in
  Pool.parallel_for ~grain:(Pool.grain_for ~work_per_index:m.rows) ~lo:0
    ~hi:m.cols (fun j_lo j_hi ->
      for i = 0 to m.rows - 1 do
        let base = i * m.cols in
        let xi = Array.unsafe_get x i in
        if xi <> 0. then
          for j = j_lo to j_hi - 1 do
            Array.unsafe_set y j
              (Array.unsafe_get y j +. (xi *. A.unsafe_get data (base + j)))
          done
      done);
  y

let block = 64

(* C <- A B, i-k-j loop order blocked on all three dimensions: the inner j
   loop is a contiguous axpy over rows of B and C, which keeps the memory
   access pattern sequential for the row-major layout. Parallelized over
   row bands of C: each band owns its rows of C outright, and a fixed
   row's accumulation order (kk blocks ascending, p ascending within) is
   independent of which band it lands in, so any partition — including
   one band covering everything — produces the same bits. *)
let gemm (a : Mat.t) (b : Mat.t) =
  if a.cols <> b.rows then invalid_arg "Blas.gemm: dimension";
  let m = a.rows and k = a.cols and n = b.cols in
  Gb_obs.Telemetry.addf flops (2. *. fi m *. fi k *. fi n);
  let c = Mat.create m n in
  let ad = a.data and bd = b.data and cd = c.data in
  Pool.parallel_for ~grain:block ~lo:0 ~hi:m (fun r_lo r_hi ->
      let ii = ref r_lo in
      while !ii < r_hi do
        Gb_util.Deadline.Ambient.checkpoint ();
        let i_hi = min r_hi (!ii + block) in
        let kk = ref 0 in
        while !kk < k do
          let k_hi = min k (!kk + block) in
          let jj = ref 0 in
          while !jj < n do
            let j_hi = min n (!jj + block) in
            for i = !ii to i_hi - 1 do
              let a_base = i * k and c_base = i * n in
              for p = !kk to k_hi - 1 do
                let aip = A.unsafe_get ad (a_base + p) in
                if aip <> 0. then begin
                  let b_base = p * n in
                  for j = !jj to j_hi - 1 do
                    A.unsafe_set cd (c_base + j)
                      (A.unsafe_get cd (c_base + j)
                      +. (aip *. A.unsafe_get bd (b_base + j)))
                  done
                end
              done
            done;
            jj := j_hi
          done;
          kk := k_hi
        done;
        ii := i_hi
      done);
  c

let gemm_naive (a : Mat.t) (b : Mat.t) =
  if a.cols <> b.rows then invalid_arg "Blas.gemm_naive: dimension";
  Gb_obs.Telemetry.addf flops (2. *. fi a.rows *. fi a.cols *. fi b.cols);
  let c = Mat.create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for j = 0 to b.cols - 1 do
      let acc = ref 0. in
      for p = 0 to a.cols - 1 do
        acc := !acc +. (Mat.get a i p *. Mat.get b p j)
      done;
      Mat.set c i j !acc
    done
  done;
  c

(* C <- A^T B. Sequentially this accumulates row i of A's outer product
   A[i,:]^T B[i,:] for i ascending. Parallelized over *output* rows p
   (each lane owns C rows [p_lo, p_hi)) with i kept as the outer loop
   inside the lane: every C[p,j] still accumulates its k terms in
   i-ascending order, so the result is bitwise independent of the
   partition, and one lane covering [0, m) is the original loop nest. *)
let atb (a : Mat.t) (b : Mat.t) =
  if a.rows <> b.rows then invalid_arg "Blas.atb: dimension";
  let k = a.rows and m = a.cols and n = b.cols in
  Gb_obs.Telemetry.addf flops (2. *. fi k *. fi m *. fi n);
  let c = Mat.create m n in
  let ad = a.data and bd = b.data and cd = c.data in
  Pool.parallel_for ~grain:8 ~lo:0 ~hi:m (fun p_lo p_hi ->
      for i = 0 to k - 1 do
        if i land 255 = 0 then Gb_util.Deadline.Ambient.checkpoint ();
        let a_base = i * m and b_base = i * n in
        for p = p_lo to p_hi - 1 do
          let aip = A.unsafe_get ad (a_base + p) in
          if aip <> 0. then begin
            let c_base = p * n in
            for j = 0 to n - 1 do
              A.unsafe_set cd (c_base + j)
                (A.unsafe_get cd (c_base + j)
                +. (aip *. A.unsafe_get bd (b_base + j)))
            done
          end
        done
      done);
  c

let ata a = atb a a

(* Each (i, j >= i) dot product writes exactly C[i,j] and C[j,i], and no
   other (i', j') pair touches either — partitioning over i is safe even
   though the mirrored writes land outside the lane's own row band. *)
let aat (a : Mat.t) =
  let m = a.rows and k = a.cols in
  Gb_obs.Telemetry.addf flops (fi m *. fi m *. fi k);
  let c = Mat.create m m in
  let ad = a.data in
  Pool.parallel_for ~grain:8 ~lo:0 ~hi:m (fun r_lo r_hi ->
      for i = r_lo to r_hi - 1 do
        let bi = i * k in
        for j = i to m - 1 do
          let bj = j * k in
          let acc = ref 0. in
          for p = 0 to k - 1 do
            acc := !acc +. (A.unsafe_get ad (bi + p) *. A.unsafe_get ad (bj + p))
          done;
          Mat.unsafe_set c i j !acc;
          Mat.unsafe_set c j i !acc
        done
      done);
  c
