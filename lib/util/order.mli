(** Sorting helpers used across the engines. *)

val argsort : ?descending:bool -> float array -> int array
(** [argsort a] is the permutation of indices that sorts [a] ascending
    (stable on ties). *)

val top_k : int -> float array -> int array
(** [top_k k a] are the indices of the [k] largest values of [a], in
    descending value order. [k] is clamped to [Array.length a]. *)

val quantile_threshold : float array -> float -> float
(** [quantile_threshold a q] with [q] in [\[0,1\]] is the value [v] such that
    a fraction [q] of the entries are [>= v]; used for "top 10%" cutoffs.
    [a] must be non-empty. *)
