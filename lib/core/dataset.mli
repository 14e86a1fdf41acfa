(** A generated benchmark data set plus bridges into each engine family's
    native representation. Loading into a store is setup, not a measured
    part of any query. *)

type t = Gb_datagen.Generate.t

val generate : ?seed:int64 -> Gb_datagen.Spec.t -> t
val of_size : Gb_datagen.Spec.size -> t

(** {1 Relational form} *)

val microarray_schema : Gb_relational.Schema.t
(** (gene_id, patient_id, value) — the paper's triple representation. *)

val patients_schema : Gb_relational.Schema.t
val genes_schema : Gb_relational.Schema.t
val go_schema : Gb_relational.Schema.t

val variants_schema : Gb_relational.Schema.t
(** (variant_id, vstart, vlen) — genomic intervals for Q6. *)

val microarray_rows : t -> Gb_relational.Value.t array list
val patients_rows : t -> Gb_relational.Value.t array list
val genes_rows : t -> Gb_relational.Value.t array list
val go_rows : t -> Gb_relational.Value.t array list
val variants_rows : t -> Gb_relational.Value.t array list

(** {1 Row / column stores} *)

type relational_db = {
  microarray_r : Gb_relational.Row_store.t;
  patients_r : Gb_relational.Row_store.t;
  genes_r : Gb_relational.Row_store.t;
  go_r : Gb_relational.Row_store.t;
  variants_r : Gb_relational.Row_store.t;
}

type columnar_db = {
  microarray_c : Gb_relational.Col_store.t;
  patients_c : Gb_relational.Col_store.t;
  genes_c : Gb_relational.Col_store.t;
  go_c : Gb_relational.Col_store.t;
  variants_c : Gb_relational.Col_store.t;
}

val load_row_stores : t -> relational_db
val load_col_stores : t -> columnar_db

val microarray_block : t -> start:int -> len:int -> Gb_relational.Col_store.t
(** The column-stored microarray rows of the [len] patients from [start]
    on, built straight from the expression matrix in
    {!microarray_rows}' order. {!load_col_stores} stores the whole table
    as one block, the multi-node column store one block per node. *)

(** {1 Array form} *)

type array_db = {
  expression : Gb_arraydb.Chunked.t; (** patients x genes *)
  patient_attrs : Gb_arraydb.Attr_array.t;
      (** age, gender, zipcode, disease_id, drug_response *)
  gene_attrs : Gb_arraydb.Attr_array.t;
      (** target, position, length, function *)
  go_pairs : (int * int) array;
  variant_ranges : (int * int) array;
      (** (vstart, vlen) indexed by variant_id *)
}

val load_array_db : t -> array_db

(** {1 Hadoop text form} *)

type hadoop_db = {
  microarray_h : string list; (** "gene_id,patient_id,value" *)
  patients_h : string list;
  genes_h : string list;
  go_h : string list;
  variants_h : string list; (** "variant_id,vstart,vlen" *)
}

val load_hadoop_db : t -> hadoop_db
