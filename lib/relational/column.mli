(** Compressed typed column vectors for the column store.

    Encodings: plain unboxed arrays, run-length (ints with long runs),
    frame-of-reference delta (narrow-range ints), and dictionary
    (strings). [compress] picks per-column by inspecting the data. *)

type t =
  | Int_plain of int array
  | Int_rle of { run_values : int array; run_starts : int array; len : int }
      (** [run_starts.(k)] is the row id where run [k] begins. *)
  | Int_for of { base : int; width : int; packed : int array; len : int }
      (** frame-of-reference: values stored as [base + small offset],
          bit-packed [width] bits each into 63-bit words. *)
  | Float_plain of float array
  | Str_dict of { dict : string array; codes : int array }

val compress : Value.ty -> Value.t array -> t

val of_ints : int array -> t
(** [compress TInt] over unboxed ints: the same encoding choice, with no
    [Value.t] per element. (Unboxed floats need no entry point:
    [compress TFloat] is always [Float_plain].) *)

val length : t -> int
val get : t -> int -> Value.t

val reader : t -> int -> Value.t
(** [reader t] decodes one cell at a time, like {!get} without its bounds
    check ([0 <= i < length t] is the caller's). A run-length reader
    remembers the run it last decoded, so an ascending scan steps
    through runs instead of searching; any other order still decodes
    correctly, through a binary search. Each [reader t] has its own
    cursor: make one per traversal. *)

val int_reader : t -> int -> int
(** {!get} for an int column, unboxed and without the bounds check. A
    run-length column searches for each row's run. Raises
    [Invalid_argument] on a float or string column. *)

val find_run : t -> (int -> int -> bool) -> int -> int * int
(** [find_run t test r] is [(first, stop)], the first run of rows
    [first, stop) at or after row [r] of int column [t] whose value [k]
    passes [test (stop - first) k], or [(length t, length t)] when none
    does. A run-length column offers whole runs (the first one cut at
    [r]), so a rejected run's rows are skipped unread; any other column
    offers one row at a time. [find_run t test] may be applied to any
    number of rows, in any order. *)

val encoding_name : t -> string
val byte_size : t -> int
(** Approximate in-memory footprint, for compression-ratio reporting. *)
