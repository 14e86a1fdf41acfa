(** The data-management phase of each query as relational plans, shared by
    every SQL-family engine (row store and column store). An engine
    provides a scan function; plans compose filters, hash joins,
    aggregation and the table→matrix pivot on top. *)

open Gb_relational

type db = {
  scan : ?keep:Ops.keep -> string -> string list -> Ops.rel;
      (** [scan ?keep table cols] where table ∈ microarray | patients |
          genes | go | variants. A row store decodes the requested fields
          of each tuple; a column store reads only the requested
          columns. [?keep] skips the tuples whose key it rejects before
          decoding them ({!Ops.keep}). *)
  row_count : string -> int; (** catalog statistics for the optimizer *)
  check : unit -> unit; (** cooperative timeout hook *)
}

val catalog : db -> Plan.catalog
(** The planner's view of an engine's storage: scans plus schema/statistics
    from the benchmark's fixed schemas. *)

val table_schema : string -> Schema.t

val genes_plan : Query.params -> Plan.t
(** Q1 and Q4: genes by function joined to the microarray, as
    (patient_id, gene_id, value). *)

val q2_plan : Query.params -> Plan.t
(** Q2: patients by disease joined to the microarray, as
    (patient_id, gene_id, value). *)

val q5_plan : Query.params -> n_patients:int -> Plan.t
(** Q5: the patients below {!Query.sample_size} of [n_patients] joined to
    the microarray, as (patient_id, gene_id, value). *)

val rows : db -> Plan.t -> Ops.rel
(** Optimize and execute a plan over the db's guarded, traced scans: the
    rows the [qN_dm] functions below pivot or aggregate, for engines
    that run their own analytics on them. Their order is the microarray's
    (gene-major, ascending) for the plans above. *)

val q1_dm : db -> Query.params -> Gb_linalg.Mat.t * float array * int array
(** Select genes by function, join with microarray, join drug response,
    pivot: returns (patients x selected-genes matrix, response vector,
    selected gene ids). *)

val q2_dm : db -> Query.params -> Gb_linalg.Mat.t * int array
(** Select patients by disease, join, pivot: (patients x all-genes matrix,
    gene ids). *)

val q2_join_metadata : db -> (int * int * float) list -> int
(** Step 4: join the thresholded covariance pairs back to the gene
    metadata table; returns the joined row count. *)

val q3_dm : db -> Query.params -> Gb_linalg.Mat.t
val q4_dm : db -> Query.params -> Gb_linalg.Mat.t * int array

val q5_dm : db -> Query.params -> n_patients:int -> float array * (int * int) array
(** Sample patients, join with microarray, aggregate mean expression per
    gene (the ranking input), and scan the GO table: (per-gene scores,
    go pairs). *)

val q6_dm : db -> Query.params -> (int * int * int) list
(** Execute the Q6 overlap-join plan (variants x genes through
    {!Plan.Interval_join}): canonical ascending (variant_id, gene_id,
    overlap_len) pairs. *)

val plans : Query.params -> n_patients:int -> (string * Plan.t) list
(** The titled logical plans the [qN_dm] functions above execute (Q1
    and Q4 share one), built by the same constructors — what
    [genbase explain] renders. [n_patients] sizes Q5's sample. *)
