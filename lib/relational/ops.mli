(** Volcano-style relational operators over lazy row streams.

    A [rel] pairs a schema with a lazy sequence of rows; operators compose
    pipelines that only do work when the sink forces them — so a timed
    query measures scan, decode, predicate, join and aggregate costs
    end-to-end. *)

type rel = { schema : Schema.t; rows : Value.t array Seq.t }

val of_list : Schema.t -> Value.t array list -> rel
val to_list : rel -> Value.t array list
val count : rel -> int

type keep = { key : string; test : int -> int -> bool }
(** A key test a scan applies before it decodes a tuple: [test n k]
    stands for the next [n] tuples, whose int column [key] holds [k],
    and [false] skips them undecoded. A row store asks about one tuple
    at a time, a column store about a whole run of a run-length key;
    either asks about every tuple it reads, exactly once. *)

val scan_row_store : ?keep:keep -> Row_store.t -> string list -> rel
(** Scan decoding only the named fields of each tuple; the output
    schema is restricted to them (in that order). [?keep] skips the
    tuples whose key it rejects before decoding them. Raises
    [Invalid_argument] if [keep.key] is not an int column. *)

val scan_col_store : ?keep:keep -> Col_store.t -> string list -> rel
(** Late-materialization scan: only the named columns are read; the
    output schema is restricted to them (in that order). [?keep] as in
    {!scan_row_store}. *)

val filter : ?trace:string -> Expr.t -> rel -> rel
(** [?trace] names a tracing span fused into the operator's own
    streaming loop (first pull to exhaustion, row count attached) —
    cheaper than wrapping the output in {!traced} because it adds no
    extra [Seq] layer. When GC profiling is on ({!Gb_obs.Profile}) the
    span also carries the loop's allocation delta as attributes. No-op
    while tracing is disabled. *)

val project : ?trace:string -> string list -> rel -> rel
(** [?trace] as in {!filter}. *)

val map_column : string -> Expr.t -> rel -> rel
(** [map_column name e r] appends a computed column. *)

val hash_join : ?trace:string -> on:(string * string) list -> rel -> rel -> rel
(** [hash_join ~on left right] equi-joins; builds a hash table on [right]
    (choose the smaller input as [right]); output schema is
    [Schema.concat left right], rows in left order, each left row's
    matches in right order. One pair of int columns keys an unboxed
    int table ({!semi_join}); other keys, a table of [Value.t]. [?trace]
    as in {!filter}, fused into the probe loop. *)

val semi_join :
  ?trace:string -> on:string * string -> probe:(keep -> rel) -> rel -> rel
(** [semi_join ~on:(l, r) ~probe right] is [hash_join ~on:[ (l, r) ] left
    right] on two int columns, where [left = probe keep] is opened with
    a test of the build side's keys: the semi-join of the left input
    with [right] is taken as the left input is read, so a scan opened
    with [keep] never decodes a tuple that joins nothing. The build runs
    at the first pull, before any left tuple is read. The probe still
    looks up every left row, so [probe] may ignore [keep]. Raises
    [Invalid_argument] if either key is not an int column. *)

type agg = Count | Sum of string | Avg of string | Min of string | Max of string

val aggregate : group_by:string list -> aggs:(string * agg) list -> rel -> rel
(** Hash aggregation; output columns are the group keys then the named
    aggregates. *)

val guard : ?interval:int -> ?trace:string -> (unit -> unit) -> rel -> rel
(** [guard check r] invokes [check] every [interval] (default 4096) rows
    pulled through — the hook the engines use for cooperative query
    timeouts. [?trace] as in {!filter}: since the guard already touches
    every row, a scan span fused here costs no extra [Seq] layer. *)

val guard_scan :
  ?interval:int -> ?trace:string -> (unit -> unit) -> keep -> (keep -> rel) -> rel
(** [guard_scan check keep open_] is {!guard} for a keyed scan: it opens
    [open_ keep'], where [keep'] is [keep] counting the tuples it is
    asked about. Since a keyed scan asks about every tuple it reads,
    [check] runs each time that count passes a multiple of [interval]
    and the span's [rows] is the tuples read, however few the scan
    yields. *)

val traced : ?cat:string -> ?attrs:Gb_obs.Obs.attrs -> name:string -> rel -> rel
(** Wrap a relation so that one full consumption emits a wall-clock
    tracing span (first pull to exhaustion) carrying the row count, and
    bumps the ["relops_rows"] counter. The per-element cost while
    tracing is one int increment plus one extra [Seq] node; with tracing
    disabled this is the identity. Use it on operators without a fused
    [?trace], such as {!aggregate}. *)

val interval_join :
  ?trace:string ->
  ?min_overlap:int ->
  left_span:string * string ->
  right_span:string * string ->
  rel ->
  rel ->
  rel
(** Sort-merge interval sweep join. [left_span]/[right_span] name each
    side's (start, length) columns describing a half-open genomic
    interval; the output is [left ++ right ++ overlap_len] for every
    pair sharing at least [min_overlap] bases (default 1), ordered by
    ascending (left row index, right row index) — canonical for
    id-ordered inputs. The sweep is partitioned over pool-independent
    left-side chunks and stitched in order, so output is bitwise
    identical at any domain count. Bumps ["relops_overlap_pairs"];
    [?trace] as in {!filter}. *)
