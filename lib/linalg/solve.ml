module A = Bigarray.Array1

let cholesky_factor a =
  let n, n2 = Mat.dims a in
  if n <> n2 then invalid_arg "Solve.cholesky_factor: not square";
  let l = Mat.create n n in
  let ad = a.Mat.data and ld = l.Mat.data in
  for i = 0 to n - 1 do
    let row_i = i * n in
    for j = 0 to i do
      let row_j = j * n in
      let acc = ref (A.unsafe_get ad (row_i + j)) in
      for k = 0 to j - 1 do
        acc := !acc -. (A.unsafe_get ld (row_i + k) *. A.unsafe_get ld (row_j + k))
      done;
      if i = j then begin
        if !acc <= 0. then failwith "Solve.cholesky: not positive definite";
        A.unsafe_set ld (row_i + i) (sqrt !acc)
      end
      else A.unsafe_set ld (row_i + j) (!acc /. A.unsafe_get ld (row_j + j))
    done
  done;
  l

let cholesky a b =
  let n = Array.length b in
  if n <> a.Mat.rows then invalid_arg "Solve.cholesky: length";
  let l = cholesky_factor a in
  let ld = l.Mat.data in
  let y = Array.make n 0. in
  for i = 0 to n - 1 do
    let row_i = i * n in
    let acc = ref b.(i) in
    for k = 0 to i - 1 do
      acc := !acc -. (A.unsafe_get ld (row_i + k) *. y.(k))
    done;
    y.(i) <- !acc /. A.unsafe_get ld (row_i + i)
  done;
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for k = i + 1 to n - 1 do
      acc := !acc -. (A.unsafe_get ld ((k * n) + i) *. x.(k))
    done;
    x.(i) <- !acc /. A.unsafe_get ld ((i * n) + i)
  done;
  x
