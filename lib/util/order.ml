let argsort ?(descending = false) a =
  let n = Array.length a in
  let idx = Array.init n Fun.id in
  let cmp i j =
    let c = Float.compare a.(i) a.(j) in
    let c = if descending then -c else c in
    if c <> 0 then c else Int.compare i j
  in
  Array.sort cmp idx;
  idx

let top_k k a =
  let k = min k (Array.length a) in
  let idx = argsort ~descending:true a in
  Array.sub idx 0 k

let quantile_threshold a q =
  if Array.length a = 0 then invalid_arg "quantile_threshold: empty";
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let count = int_of_float (ceil (q *. float_of_int n)) in
  let count = max 1 (min n count) in
  sorted.(n - count)
