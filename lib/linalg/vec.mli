(** BLAS level-1 operations on plain [float array] vectors. *)

val dot : float array -> float array -> float
val nrm2 : float array -> float
val scale : float -> float array -> float array

val axpy : float -> float array -> float array -> unit
(** [axpy a x y] computes [y <- a*x + y] in place. *)

val add : float array -> float array -> float array
val sub : float array -> float array -> float array
val mean : float array -> float
val normalize : float array -> float array
(** [x / ||x||]; raises [Invalid_argument] on the zero vector. *)
