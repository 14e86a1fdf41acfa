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

val iter : (int -> Value.t -> unit) -> t -> unit
(** Sequential decompressing scan; much faster than repeated [get]. *)

val encoding_name : t -> string
val byte_size : t -> int
(** Approximate in-memory footprint, for compression-ratio reporting. *)

val to_values : t -> Value.t array
