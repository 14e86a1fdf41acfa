(** Binary row encoding for the row store's pages.

    Tuples are stored in "highly encoded form on storage blocks" (as the
    paper puts it for tabular row stores): ints and floats as fixed 8-byte
    fields, strings length-prefixed. The decode cost paid on every scan is
    part of what the benchmark measures. *)

val encoded_size : Schema.t -> Value.t array -> int

val encode : Schema.t -> Value.t array -> Bytes.t -> int -> int
(** [encode schema row buf off] writes at [off], returns bytes written. *)

val decode : Schema.t -> Bytes.t -> int -> Value.t array
(** [decode schema buf off] is the whole tuple at [off]. *)

val offsets : Schema.t -> Bytes.t -> int -> int array -> int
(** [offsets schema buf off offs] writes the offset of each field of the
    tuple at [off] into [offs] (of length at least the arity) and
    returns the offset just past the tuple. *)

val fixed_width : Schema.t -> int option
(** The size of every tuple of a schema without strings: its field [i]
    then lies [8 * i] bytes into the tuple. [None] when some column is a
    string. *)

val field : Value.ty -> Bytes.t -> int -> Value.t
(** [field ty buf pos] decodes one field of type [ty] at [pos]. *)

val int_at : Bytes.t -> int -> int
(** The int field at [pos], unboxed: a scan reads a key with it before
    deciding whether to decode the tuple. *)
