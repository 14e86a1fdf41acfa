type t =
  | Q1_regression
  | Q2_covariance
  | Q3_biclustering
  | Q4_svd
  | Q5_statistics
  | Q6_overlap

type params = {
  func_threshold : int;
  disease_id : int;
  max_age : int;
  gender : int;
  cov_top_fraction : float;
  svd_k : int;
  sample_fraction : float;
  p_threshold : float;
  min_overlap_bp : int;
}

let default_params =
  {
    func_threshold = Gb_datagen.Generate.func_threshold;
    disease_id = 1;
    max_age = 40;
    gender = 1;
    cov_top_fraction = 0.10;
    svd_k = 50;
    sample_fraction = 0.05;
    p_threshold = 0.05;
    min_overlap_bp = 1;
  }

let all =
  [
    Q1_regression;
    Q2_covariance;
    Q3_biclustering;
    Q4_svd;
    Q5_statistics;
    Q6_overlap;
  ]

let name = function
  | Q1_regression -> "regression"
  | Q2_covariance -> "covariance"
  | Q3_biclustering -> "biclustering"
  | Q4_svd -> "svd"
  | Q5_statistics -> "statistics"
  | Q6_overlap -> "overlap"

let title = function
  | Q1_regression -> "Linear Regression"
  | Q2_covariance -> "Covariance"
  | Q3_biclustering -> "Biclustering"
  | Q4_svd -> "SVD"
  | Q5_statistics -> "Statistics"
  | Q6_overlap -> "Overlap Join"

let of_name s =
  let s = String.lowercase_ascii s in
  let rec find i = function
    | [] -> None
    | q :: rest ->
      if name q = s || string_of_int i = s then Some q else find (i + 1) rest
  in
  find 1 all
