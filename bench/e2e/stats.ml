(* Sample statistics behind the end-to-end and per-layer metrics, and
   behind [compare]'s quartiles. Pure: no clocks, no I/O. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (the same rule as
   Bench_json's record statistics). *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let rank = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = min (n - 1) (lo + 1) in
  let frac = rank -. float_of_int lo in
  (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)

let median xs = quantile_sorted (sorted xs) 0.5

(* A percentile is only reported when at least this many samples lie
   beyond it; below that it is the noise of a handful of requests. *)
let min_beyond = 10

let supports ~n q =
  (* the tolerance keeps 100 * (1 - 0.9) from rounding below 10 *)
  float_of_int n *. (1. -. q) >= float_of_int min_beyond -. 1e-9

let percentile xs q =
  let n = List.length xs in
  if supports ~n q then Some (quantile_sorted (sorted xs) q) else None

(* The tail of a sample: the highest of p99 and p90 that the sample
   supports, falling back to the median below 100 samples. *)
let tail xs =
  match List.find_map (percentile xs) [ 0.99; 0.9 ] with
  | Some v -> v
  | None -> median xs

(* Geometric mean over request types of each type's median latency, in
   the style of the TPC-H power metric: every type gets one vote however
   often it ran. A pooled percentile of a mix of fast and slow query
   types lands in the gap between clusters and jumps from run to run;
   per-type medians do not, and they ignore the minority of requests
   that queued behind a slow one. *)
let geomean_of_type_medians samples =
  let by_type = Hashtbl.create 16 in
  List.iter
    (fun (ty, v) ->
      Hashtbl.replace by_type ty
        (v :: Option.value (Hashtbl.find_opt by_type ty) ~default:[]))
    samples;
  if Hashtbl.length by_type = 0 then invalid_arg "Stats.geomean: no samples";
  let logs = Hashtbl.fold (fun _ vs acc -> log (median vs) :: acc) by_type [] in
  exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs))

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), so [compare] reports the same
   spread as scripts that use it. Needs at least two samples. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need two samples";
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (cut 1, cut 2, cut 3)
