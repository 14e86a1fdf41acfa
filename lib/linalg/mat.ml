module A = Bigarray.Array1

type t = {
  rows : int;
  cols : int;
  data : (float, Bigarray.float64_elt, Bigarray.c_layout) A.t;
}

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  let data = A.create Bigarray.float64 Bigarray.c_layout (rows * cols) in
  A.fill data 0.;
  { rows; cols; data }

let dims m = (m.rows, m.cols)
let byte_size m = 8 * m.rows * m.cols

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Mat.get: out of bounds";
  A.unsafe_get m.data ((i * m.cols) + j)

let set m i j v =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Mat.set: out of bounds";
  A.unsafe_set m.data ((i * m.cols) + j) v

let unsafe_get m i j = A.unsafe_get m.data ((i * m.cols) + j)
let unsafe_set m i j v = A.unsafe_set m.data ((i * m.cols) + j) v

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      unsafe_set m i j (f i j)
    done
  done;
  m

let copy m =
  let c = create m.rows m.cols in
  A.blit m.data c.data;
  c

let fill m v = A.fill m.data v

let identity n = init n n (fun i j -> if i = j then 1. else 0.)

let of_arrays a =
  let rows = Array.length a in
  let cols = if rows = 0 then 0 else Array.length a.(0) in
  Array.iter
    (fun r ->
      if Array.length r <> cols then invalid_arg "Mat.of_arrays: ragged")
    a;
  init rows cols (fun i j -> a.(i).(j))

let to_arrays m =
  Array.init m.rows (fun i -> Array.init m.cols (fun j -> unsafe_get m i j))

let row m i = Array.init m.cols (fun j -> get m i j)
let col m j = Array.init m.rows (fun i -> get m i j)

let set_row m i r =
  if Array.length r <> m.cols then invalid_arg "Mat.set_row: length";
  for j = 0 to m.cols - 1 do
    set m i j r.(j)
  done

let transpose m = init m.cols m.rows (fun i j -> unsafe_get m j i)

let sub_rows m idx =
  let out = create (Array.length idx) m.cols in
  Array.iteri
    (fun k i ->
      if i < 0 || i >= m.rows then invalid_arg "Mat.sub_rows: index";
      for j = 0 to m.cols - 1 do
        unsafe_set out k j (unsafe_get m i j)
      done)
    idx;
  out

let sub_cols m idx =
  let out = create m.rows (Array.length idx) in
  Array.iteri
    (fun k j ->
      if j < 0 || j >= m.cols then invalid_arg "Mat.sub_cols: index";
      for i = 0 to m.rows - 1 do
        unsafe_set out i k (unsafe_get m i j)
      done)
    idx;
  out

let map f m =
  let out = create m.rows m.cols in
  let n = m.rows * m.cols in
  for k = 0 to n - 1 do
    A.unsafe_set out.data k (f (A.unsafe_get m.data k))
  done;
  out

let iteri f m =
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      f i j (unsafe_get m i j)
    done
  done

let lift2 op a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Mat: dimension mismatch";
  let out = create a.rows a.cols in
  let n = a.rows * a.cols in
  for k = 0 to n - 1 do
    A.unsafe_set out.data k (op (A.unsafe_get a.data k) (A.unsafe_get b.data k))
  done;
  out

let add = lift2 ( +. )
let sub = lift2 ( -. )
let scale s m = map (fun x -> s *. x) m

let col_means m =
  let means = Array.make m.cols 0. in
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      means.(j) <- means.(j) +. unsafe_get m i j
    done
  done;
  let n = float_of_int (max 1 m.rows) in
  Array.map (fun s -> s /. n) means

(* Row bands write disjoint output and read only [means], so the
   centered matrix is bitwise independent of the domain count. *)
let center_cols m =
  let means = col_means m in
  let out = create m.rows m.cols in
  Gb_par.Pool.parallel_for ~grain:64 ~lo:0 ~hi:m.rows (fun r_lo r_hi ->
      for i = r_lo to r_hi - 1 do
        for j = 0 to m.cols - 1 do
          unsafe_set out i j (unsafe_get m i j -. means.(j))
        done
      done);
  out

let frobenius m =
  let acc = ref 0. in
  let n = m.rows * m.cols in
  for k = 0 to n - 1 do
    let v = A.unsafe_get m.data k in
    acc := !acc +. (v *. v)
  done;
  sqrt !acc

let max_abs_diff a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Mat.max_abs_diff: dimension mismatch";
  let worst = ref 0. in
  let n = a.rows * a.cols in
  for k = 0 to n - 1 do
    let d = Float.abs (A.unsafe_get a.data k -. A.unsafe_get b.data k) in
    if d > !worst then worst := d
  done;
  !worst

let equal ?(eps = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols && max_abs_diff a b <= eps

let random rng rows cols = init rows cols (fun _ _ -> Gb_util.Prng.normal rng)

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  for i = 0 to min 7 (m.rows - 1) do
    Format.fprintf fmt "@[<h>";
    for j = 0 to min 7 (m.cols - 1) do
      Format.fprintf fmt "%10.4f " (unsafe_get m i j)
    done;
    if m.cols > 8 then Format.fprintf fmt "...";
    Format.fprintf fmt "@]@,"
  done;
  if m.rows > 8 then Format.fprintf fmt "...@,";
  Format.fprintf fmt "(%dx%d)@]" m.rows m.cols
