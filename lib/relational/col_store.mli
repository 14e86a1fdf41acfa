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

val iter_cols : t -> string list -> (Value.t array -> unit) -> unit
(** [iter_cols t names f] scans only the named columns; [f] receives the
    values in the order of [names]. *)

val iter : t -> (Value.t array -> unit) -> unit
(** Full-width scan (materializes every column). *)

val to_seq : t -> string list -> Value.t array Seq.t
(** Lazy late-materialization scan over the named columns only. *)

val compression_report : t -> (string * string * int) list
(** [(column, encoding, bytes)] per column. *)

val zone_block : int
(** Rows per zone-map block. *)

val scan_range :
  t -> string list -> on:string -> lo:float -> hi:float ->
  Value.t array Seq.t * int
(** Zone-map-accelerated range scan: returns the rows of the named columns
    whose numeric [on] value lies in [lo, hi], plus the number of
    [zone_block]-row blocks the per-block min/max summaries allowed the
    scan to skip without reading. *)
