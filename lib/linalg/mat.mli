(** Dense row-major float64 matrices backed by [Bigarray].

    This is the array substrate for every analytics kernel in the benchmark
    (the container has no numerical libraries, so BLAS/LAPACK-style code is
    built here from scratch). *)

type t = {
  rows : int;
  cols : int;
  data : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
}

val create : int -> int -> t
(** Zero-filled [rows x cols] matrix. *)

val init : int -> int -> (int -> int -> float) -> t
val dims : t -> int * int

val byte_size : t -> int
(** Payload bytes, 8 per cell: what shipping the matrix moves. *)

(** Element accessors [get], [set], [unsafe_get] and [unsafe_set]. Called
    from another module they are out-of-line calls that box every float
    they take or return: the dev profile compiles each library with
    [-opaque], so nothing is inlined across modules. An O(n{^2}) or
    larger loop must index [m.data] directly
    ([Bigarray.Array1.unsafe_get m.data ((i * m.cols) + j)]), as {!Blas}
    does, and walk rows contiguously. *)
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val unsafe_get : t -> int -> int -> float
val unsafe_set : t -> int -> int -> float -> unit

val copy : t -> t
val fill : t -> float -> unit
val identity : int -> t
val of_arrays : float array array -> t
val to_arrays : t -> float array array
val row : t -> int -> float array
val col : t -> int -> float array
val set_row : t -> int -> float array -> unit
val transpose : t -> t

val sub_rows : t -> int array -> t
(** [sub_rows m idx] selects rows [idx] in order. *)

val sub_cols : t -> int array -> t

val map : (float -> float) -> t -> t
val iteri : (int -> int -> float -> unit) -> t -> unit

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

val col_means : t -> float array
val center_cols : t -> t
(** Subtract the column mean from every column (returns a new matrix). *)

val frobenius : t -> float
val max_abs_diff : t -> t -> float
val equal : ?eps:float -> t -> t -> bool

val random : Gb_util.Prng.t -> int -> int -> t
(** Entries i.i.d. standard normal. *)

val pp : Format.formatter -> t -> unit
