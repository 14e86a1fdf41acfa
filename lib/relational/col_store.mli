(** Columnar table storage with per-column compression and
    late-materialization scans. *)

type t

val of_rows : Schema.t -> Value.t array list -> t
val of_columns : Schema.t -> Value.t array array -> t
(** [of_columns schema cols] where [cols.(i)] holds column [i]'s values. *)

val of_compressed : Schema.t -> Column.t array -> t
(** A table over columns already built (with {!Column.of_ints},
    [Column.Float_plain] or {!Column.compress}), [columns.(i)] being
    column [i] of [schema]. Raises [Invalid_argument] on an arity
    mismatch or ragged columns. *)

val schema : t -> Schema.t
val row_count : t -> int
val column : t -> int -> Column.t

val to_seq :
  ?keep:int * (int -> int -> bool) -> t -> string list -> Value.t array Seq.t
(** Lazy late-materialization scan over the named columns only, in the
    order of [names] (a name may repeat). Each cell is decoded when its
    row is yielded; no decoded copy of a column is built.

    [keep = (key, test)] names an int column and a test on its values,
    asked before a row is decoded: [test n k] stands for the next [n]
    rows, whose key is [k] (a run-length key is asked a run at a time,
    any other key row by row, see {!Column.find_run}), and [false] skips
    them. Every row is asked about exactly once. *)

val compression_report : t -> (string * string * int) list
(** [(column, encoding, bytes)] per column. *)
