open Gb_relational
module Mat = Gb_linalg.Mat

type db = {
  scan : string -> string list -> Ops.rel;
  row_count : string -> int;
  check : unit -> unit;
}

let table_schema = function
  | "microarray" -> Dataset.microarray_schema
  | "patients" -> Dataset.patients_schema
  | "genes" -> Dataset.genes_schema
  | "go" -> Dataset.go_schema
  | "variants" -> Dataset.variants_schema
  | t -> invalid_arg ("Relops: unknown table " ^ t)

let catalog db =
  {
    Plan.scan =
      (fun t cols ->
        Ops.guard ~trace:("scan:" ^ t) db.check (db.scan t cols));
    schema_of = table_schema;
    row_count = db.row_count;
  }

let guarded db table cols =
  Ops.guard ~trace:("scan:" ^ table) db.check (db.scan table cols)

(* Join the selected rows of a small table ([genes] on gene_id or
   [patients] on patient_id) against the microarray, keeping
   (patient_id, gene_id, value); expressed as a logical plan so the
   optimizer's pushdown / pruning / build-side choice applies. *)
let micro_join table key pred =
  Plan.Project
    ( [ "patient_id"; "gene_id"; "value" ],
      Plan.Filter
        ( pred,
          Plan.Join
            {
              left = Plan.Scan ("microarray", []);
              right = Plan.Scan (table, []);
              on = [ (key, key) ];
            } ) )

let genes_plan (params : Query.params) =
  micro_join "genes" "gene_id" Expr.(col "func" <% int params.func_threshold)

let q2_plan (params : Query.params) =
  micro_join "patients" "patient_id"
    Expr.(col "disease_id" =% int params.disease_id)

let q3_plan (params : Query.params) =
  micro_join "patients" "patient_id"
    Expr.(
      col "age" <% int params.max_age &&% (col "gender" =% int params.gender))

(* Q5 samples the first k patient ids, k a fraction of the cohort. *)
let q5_plan (params : Query.params) ~n_patients =
  let k =
    max 2
      (int_of_float
         (Float.round (params.sample_fraction *. float_of_int n_patients)))
  in
  micro_join "patients" "patient_id" Expr.(col "patient_id" <% int k)

let pivot_triples rel =
  Gb_obs.Profile.with_ ~cat:"op" ~name:"pivot" (fun () ->
      Pivot.of_triples ~row_col:"patient_id" ~col_col:"gene_id"
        ~value_col:"value" rel)

let q1_dm db params =
  let piv = pivot_triples (Plan.execute (catalog db) (genes_plan params)) in
  (* Project the drug response and align it with the pivot's row order. *)
  let resp = Hashtbl.create 1024 in
  let patients =
    Ops.traced ~name:"scan:patients"
      (db.scan "patients" [ "patient_id"; "drug_response" ])
  in
  let pi = Schema.index patients.Ops.schema "patient_id" in
  let di = Schema.index patients.Ops.schema "drug_response" in
  Seq.iter
    (fun row ->
      Hashtbl.replace resp (Value.to_int row.(pi)) (Value.to_float row.(di)))
    patients.Ops.rows;
  let y =
    Array.map (fun pid -> Hashtbl.find resp pid) piv.Pivot.row_ids
  in
  (piv.Pivot.matrix, y, piv.Pivot.col_ids)

let q2_dm db params =
  let piv = pivot_triples (Plan.execute (catalog db) (q2_plan params)) in
  (piv.Pivot.matrix, piv.Pivot.col_ids)

let q2_join_metadata db pairs =
  let pair_schema =
    Schema.make
      [ ("g1", Value.TInt); ("g2", Value.TInt); ("cov", Value.TFloat) ]
  in
  let pair_rel =
    Ops.of_list pair_schema
      (List.map
         (fun (a, b, v) -> [| Value.Int a; Value.Int b; Value.Float v |])
         pairs)
  in
  let genes =
    db.scan "genes" [ "gene_id"; "target"; "position"; "length"; "func" ]
  in
  let joined = Ops.hash_join ~on:[ ("g1", "gene_id") ] pair_rel genes in
  Ops.count (Ops.guard db.check joined)

let q3_dm db params =
  (pivot_triples (Plan.execute (catalog db) (q3_plan params))).Pivot.matrix

let q4_dm db params =
  let piv = pivot_triples (Plan.execute (catalog db) (genes_plan params)) in
  (piv.Pivot.matrix, piv.Pivot.col_ids)

(* Q6: overlap-join variant intervals against gene intervals through the
   volcano planner, so the stores execute the Interval_join node (and
   EXPLAIN ANALYZE can show its est-vs-actual overlap count).  The
   sweep's output order — ascending (variant row, gene row) over
   id-ordered scans — is already canonical. *)
let q6_plan (params : Query.params) =
  Plan.Interval_join
    {
      left = Plan.Scan ("variants", []);
      right = Plan.Scan ("genes", []);
      left_span = ("vstart", "vlen");
      right_span = ("position", "length");
      min_overlap = params.min_overlap_bp;
    }

let q6_dm db (params : Query.params) =
  let rel = Plan.execute (catalog db) (q6_plan params) in
  let vi = Schema.index rel.Ops.schema "variant_id" in
  let gi = Schema.index rel.Ops.schema "gene_id" in
  let oi = Schema.index rel.Ops.schema "overlap_len" in
  let pairs = ref [] in
  Seq.iter
    (fun row ->
      pairs :=
        (Value.to_int row.(vi), Value.to_int row.(gi), Value.to_int row.(oi))
        :: !pairs)
    rel.Ops.rows;
  List.rev !pairs

let q5_dm db params ~n_patients =
  let joined = Plan.execute (catalog db) (q5_plan params ~n_patients) in
  let means =
    Ops.traced ~name:"aggregate"
      (Ops.aggregate ~group_by:[ "gene_id" ]
         ~aggs:[ ("score", Ops.Avg "value") ]
         joined)
  in
  let pairs_tbl = Hashtbl.create 1024 in
  let gi = Schema.index means.Ops.schema "gene_id" in
  let si = Schema.index means.Ops.schema "score" in
  Seq.iter
    (fun row ->
      Hashtbl.replace pairs_tbl (Value.to_int row.(gi)) (Value.to_float row.(si)))
    means.Ops.rows;
  let max_gene = Hashtbl.fold (fun g _ acc -> max g acc) pairs_tbl (-1) in
  let scores =
    Array.init (max_gene + 1) (fun g ->
        try Hashtbl.find pairs_tbl g with Not_found -> 0.)
  in
  let go = guarded db "go" [ "gene_id"; "go_id" ] in
  let ggi = Schema.index go.Ops.schema "gene_id" in
  let tti = Schema.index go.Ops.schema "go_id" in
  let go_pairs = ref [] in
  Seq.iter
    (fun row ->
      go_pairs := (Value.to_int row.(ggi), Value.to_int row.(tti)) :: !go_pairs)
    go.Ops.rows;
  (scores, Array.of_list (List.rev !go_pairs))

let plans params ~n_patients =
  [
    ("Q1/Q4 data management (genes by function x microarray)", genes_plan params);
    ("Q2 data management (patients by disease x microarray)", q2_plan params);
    ( "Q3 data management (patients by age and gender x microarray)",
      q3_plan params );
    ( "Q5 data management (sampled patients x microarray)",
      q5_plan params ~n_patients );
    ("Q6 overlap join (variants x gene coordinates)", q6_plan params);
  ]
