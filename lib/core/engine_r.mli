(** Configuration 1: Vanilla R.

    Memory-resident dataframes with LAPACK-class kernels (our
    [Gb_linalg]), single-threaded, and subject to R's array cell limit —
    2³¹−1 cells in the paper, scaled by the same 625x factor as the data
    sets. Loading a data set into frames ([prepare]) costs two copies
    (read buffer + frame), which is why the large data set fails here, as
    observed in the paper; each query charges its selections on top. *)

val engine : Engine.t

val cell_budget : int
(** The scaled cell limit. *)
