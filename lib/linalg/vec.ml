let check2 name x y =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Vec.%s: length mismatch" name)

let dot x y =
  check2 "dot" x y;
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc :=
      !acc +. (Array.unsafe_get x i *. Array.unsafe_get y i)
  done;
  !acc

let nrm2 x = sqrt (dot x x)

let scale a x = Array.map (fun v -> a *. v) x

let axpy a x y =
  check2 "axpy" x y;
  for i = 0 to Array.length x - 1 do
    Array.unsafe_set y i
      ((a *. Array.unsafe_get x i) +. Array.unsafe_get y i)
  done

let add x y =
  check2 "add" x y;
  Array.mapi (fun i v -> v +. y.(i)) x

let sub x y =
  check2 "sub" x y;
  Array.mapi (fun i v -> v -. y.(i)) x

let mean x =
  if Array.length x = 0 then 0.
  else Array.fold_left ( +. ) 0. x /. float_of_int (Array.length x)

let normalize x =
  let n = nrm2 x in
  if n = 0. then invalid_arg "Vec.normalize: zero vector";
  scale (1. /. n) x
