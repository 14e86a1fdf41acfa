(** Heap-file row store (the Postgres-style physical layout): rows encoded
    onto fixed-size pages; scans decode every tuple. *)

type t

val page_size : int

val create : Schema.t -> t
val schema : t -> Schema.t
val insert : t -> Value.t array -> unit
val insert_all : t -> Value.t array list -> unit
val row_count : t -> int
val page_count : t -> int

val scan :
  ?keep:int * (int -> int -> bool) -> t -> int array -> Value.t array Seq.t
(** [scan t cols] is a lazy scan in insertion order that decodes only
    the fields [cols] (schema indices, in output order) of each tuple.
    [keep = (key, test)] names an int column: [test 1 k] is asked about
    every tuple, with its key [k] read straight from the page, and
    [false] skips the tuple without decoding it. Each traversal is one
    pass: force each node of it once. *)

val to_seq : t -> Value.t array Seq.t
(** {!scan} of every column: whole tuples. *)

val iter : t -> (Value.t array -> unit) -> unit
(** Full scan in insertion order, decoding each row. *)

val of_rows : Schema.t -> Value.t array list -> t
