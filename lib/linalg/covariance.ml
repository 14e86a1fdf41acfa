let scale_factor rows =
  if rows < 2 then invalid_arg "Covariance: need at least two rows";
  1. /. float_of_int (rows - 1)

let matrix m =
  Gb_obs.Profile.with_ ~cat:"kernel" ~name:"covariance.matrix"
    ~attrs:[ ("rows", Gb_obs.Obs.Int m.Mat.rows); ("cols", Gb_obs.Obs.Int m.Mat.cols) ]
  @@ fun () ->
  let centered = Mat.center_cols m in
  Mat.scale (scale_factor m.Mat.rows) (Blas.ata centered)

let matrix_naive m =
  Gb_obs.Profile.with_ ~cat:"kernel" ~name:"covariance.matrix_naive"
    ~attrs:[ ("rows", Gb_obs.Obs.Int m.Mat.rows); ("cols", Gb_obs.Obs.Int m.Mat.cols) ]
  @@ fun () ->
  let centered = Mat.center_cols m in
  let t = Mat.transpose centered in
  Mat.scale (scale_factor m.Mat.rows) (Blas.gemm_naive t centered)

let upper_pairs c =
  let n = c.Mat.cols in
  let out = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      out := (i, j, Mat.unsafe_get c i j) :: !out
    done
  done;
  !out

let by_abs_desc (_, _, a) (_, _, b) = Float.compare (Float.abs b) (Float.abs a)

let top_fraction c q =
  let all = List.sort by_abs_desc (upper_pairs c) in
  let n = List.length all in
  let keep = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  List.filteri (fun i _ -> i < keep) all
