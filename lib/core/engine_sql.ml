open Gb_relational

type backend = Row_backend | Col_backend

(* The store set is built once, when [make_db backend ds] is applied;
   each [~check] then yields a db over the same stores. *)
let make_db backend ds =
  match backend with
  | Row_backend ->
    let db = Dataset.load_row_stores ds in
    let store = function
      | "microarray" -> db.Dataset.microarray_r
      | "patients" -> db.Dataset.patients_r
      | "genes" -> db.Dataset.genes_r
      | "go" -> db.Dataset.go_r
      | "variants" -> db.Dataset.variants_r
      | t -> invalid_arg ("unknown table " ^ t)
    in
    let scan ?keep table cols = Ops.scan_row_store ?keep (store table) cols in
    let row_count table = Row_store.row_count (store table) in
    fun ~check -> { Relops.scan; row_count; check }
  | Col_backend ->
    let db = Dataset.load_col_stores ds in
    let store = function
      | "microarray" -> db.Dataset.microarray_c
      | "patients" -> db.Dataset.patients_c
      | "genes" -> db.Dataset.genes_c
      | "go" -> db.Dataset.go_c
      | "variants" -> db.Dataset.variants_c
      | t -> invalid_arg ("unknown table " ^ t)
    in
    let scan ?keep table cols = Ops.scan_col_store ?keep (store table) cols in
    let row_count table = Col_store.row_count (store table) in
    fun ~check -> { Relops.scan; row_count; check }

(* Each query's relational plans over one db. *)
let plans db (ds : Dataset.t) =
  {
    Engine_single.q1 =
      (fun p ->
        let x, y, _ = Relops.q1_dm db p in
        (x, y));
    q2 = Relops.q2_dm db;
    q3 = Relops.q3_dm db;
    q4 = (fun p -> fst (Relops.q4_dm db p));
    q5 = Relops.q5_dm db ~n_patients:(Array.length ds.patients);
    (* The planner's Interval_join sweep does all the work in the store. *)
    q6 =
      (fun p ->
        let pairs = Relops.q6_dm db p in
        fun () -> pairs);
    metadata =
      Some
        ( "dm:join_metadata",
          fun pairs -> ignore (Relops.q2_join_metadata db pairs) );
  }

(* The external-R configurations ship matrices through text; the
   in-DB R-UDF interface marshals the biclustering matrix through the
   UDF protocol repeatedly during the iterative algorithm. *)
let make ~name ~backend ~boundary =
  let boundary, marshal =
    match boundary with
    | `Export_to_r -> (Export.roundtrip_matrix, ignore)
    | `Udf ->
      ( Fun.id,
        fun m ->
          for _ = 1 to 3 do
            ignore (Export.roundtrip_matrix m)
          done )
  in
  Engine_single.make ~name ~boundary ~marshal (fun ds ->
      let stores = make_db backend ds in
      fun ~check -> plans (stores ~check) ds)

let postgres_r =
  make ~name:"Postgres + R" ~backend:Row_backend ~boundary:`Export_to_r

let colstore_r =
  make ~name:"Column store + R" ~backend:Col_backend ~boundary:`Export_to_r

let colstore_udf =
  make ~name:"Column store + UDFs" ~backend:Col_backend ~boundary:`Udf
