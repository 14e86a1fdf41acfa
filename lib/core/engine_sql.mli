(** Configurations 3–5: SQL engines with external-R or in-DB-UDF
    analytics.

    [make] builds an engine on the {!Engine_single} program from a
    storage backend (row or column store) and an analytics boundary:
    - [`Export_to_r]: results cross a CSV serialize/parse boundary before
      analytics (Postgres+R, ColumnStore+R);
    - [`Udf]: analytics run in-process against the pivoted data
      (ColumnStore+UDFs) — cheaper, except for the chatty marshalling the
      biclustering UDF pays, reproducing the pathology the paper observed. *)

type backend = Row_backend | Col_backend

val make : name:string -> backend:backend ->
  boundary:[ `Export_to_r | `Udf ] -> Engine.t

val postgres_r : Engine.t
val colstore_r : Engine.t
val colstore_udf : Engine.t

val make_db :
  backend -> Dataset.t -> check:(unit -> unit) -> Relops.db
(** The relational scans over one data set's stores. The stores are
    built when [make_db backend ds] is applied, so a partial application
    serves any number of queries, each with its own [check] hook.
    Exposed for Madlib, which prepares its session over the row stores,
    and for benches that replay the data-management layer. *)
