(** Direct solvers for small symmetric systems. *)

val cholesky : Mat.t -> float array -> float array
(** [cholesky a b] solves [A x = b] for symmetric positive-definite [A].
    Raises [Failure] if [A] is not positive definite, and
    [Invalid_argument] if [b]'s length is not [A]'s order. *)

val cholesky_factor : Mat.t -> Mat.t
(** Lower-triangular [L] with [L L{^T} = A]. *)
