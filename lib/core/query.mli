(** The GenBase benchmark queries: the paper's five plus the Q6
    genomic overlap join. *)

type t =
  | Q1_regression
  | Q2_covariance
  | Q3_biclustering
  | Q4_svd
  | Q5_statistics
  | Q6_overlap

type params = {
  func_threshold : int; (** Q1/Q4: genes with [function < threshold] *)
  disease_id : int; (** Q2: patients with this disease *)
  max_age : int; (** Q3: patients younger than this *)
  gender : int; (** Q3: 1 = male *)
  cov_top_fraction : float; (** Q2: keep this fraction of gene pairs *)
  svd_k : int; (** Q4: number of singular values (the paper's 50) *)
  sample_fraction : float; (** Q5: fraction of patients sampled *)
  p_threshold : float; (** Q5: enrichment significance cutoff *)
  min_overlap_bp : int; (** Q6: minimum shared bases for a match *)
}

val default_params : params
val all : t list
val name : t -> string
(** Short name, e.g. ["regression"]. *)

val title : t -> string
(** Figure title, e.g. ["Linear Regression"]. *)

val of_name : string -> t option
(** A query by its short name (case-insensitive) or its number, ["1"]
    to ["6"]. *)
