let mean a =
  let n = Array.length a in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int n

let variance a =
  let n = Array.length a in
  if n < 2 then 0.
  else begin
    let m = mean a in
    let acc = ref 0. in
    Array.iter
      (fun x ->
        let d = x -. m in
        acc := !acc +. (d *. d))
      a;
    !acc /. float_of_int (n - 1)
  end

let std a = sqrt (variance a)

let quantile a q =
  if q < 0. || q > 1. then invalid_arg "Descriptive.quantile: q";
  let s = Array.copy a in
  Array.sort Float.compare s;
  Gb_util.Order.quantile_sorted s q

let median a = quantile a 0.5

let covariance x y =
  let n = Array.length x in
  if Array.length y <> n then invalid_arg "Descriptive.covariance: length";
  if n < 2 then 0.
  else begin
    let mx = mean x and my = mean y in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. ((x.(i) -. mx) *. (y.(i) -. my))
    done;
    !acc /. float_of_int (n - 1)
  end

let pearson x y =
  let c = covariance x y in
  let sx = std x and sy = std y in
  if sx = 0. || sy = 0. then 0. else c /. (sx *. sy)
