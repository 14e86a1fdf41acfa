(** Covariance between matrix columns (benchmark Query 2).

    For a samples-by-genes matrix this yields the genes-by-genes covariance
    the biologists use to find functionally related genes. *)

val matrix : Mat.t -> Mat.t
(** [matrix m] is the sample covariance of the columns of [m]: center each
    column, then [(1/(rows-1)) M{^T}M] via the blocked kernel. Requires at
    least two rows. *)

val matrix_naive : Mat.t -> Mat.t
(** Same result through the untuned triple loop (the no-BLAS engines). *)

val top_fraction : Mat.t -> float -> (int * int * float) list
(** [top_fraction c q] keeps the top fraction [q] (e.g. [0.1] for the
    paper's "top 10%") of upper-triangle pairs by absolute covariance. *)
