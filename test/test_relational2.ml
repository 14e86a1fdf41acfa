(* The sort-merge interval join as an equi-join, and the logical planner:
   predicate pushdown, column pruning and EXPLAIN. *)

open Gb_relational

let rows_eq =
  Alcotest.testable
    (fun fmt rows ->
      List.iter
        (fun r ->
          Array.iter (fun v -> Format.fprintf fmt "%a," Value.pp v) r;
          Format.fprintf fmt ";")
        rows)
    (fun a b ->
      List.length a = List.length b
      && List.for_all2 (fun x y -> Array.for_all2 Value.equal x y) a b)

let sort_rows rows =
  List.sort
    (fun a b ->
      compare (Array.map Value.to_string a) (Array.map Value.to_string b))
    rows

(* --- sort-merge join --- *)

(* Over unit-length spans [k, k+1) two rows overlap exactly when their
   keys are equal, so the sort-merge interval sweep is an equi-join on k. *)
let keyed = Schema.make [ ("k", Value.TInt); ("len", Value.TInt); ("v", Value.TFloat) ]

let unit_span_join left right =
  Ops.interval_join ~left_span:("k", "len") ~right_span:("k", "len")
    (Ops.of_list keyed left) (Ops.of_list keyed right)

let test_sweep_join_matches_hash_join () =
  let g = Gb_util.Prng.create 5L in
  let mk n =
    List.init n (fun i ->
        [| Value.Int (Gb_util.Prng.int g 20); Value.Int 1; Value.Float (float_of_int i) |])
  in
  let left = mk 150 and right = mk 60 in
  let h =
    Ops.to_list
      (Ops.hash_join ~on:[ ("k", "k") ] (Ops.of_list keyed left)
         (Ops.of_list keyed right))
  in
  let m = Ops.to_list (unit_span_join left right) in
  Alcotest.(check bool) "keys collide" true (List.length h > 150);
  List.iter
    (fun row -> Alcotest.(check int) "overlap_len" 1 (Value.to_int row.(6)))
    m;
  Alcotest.check rows_eq "same multiset" (sort_rows h)
    (sort_rows (List.map (fun row -> Array.sub row 0 6) m))

let test_sweep_join_empty_sides () =
  let some = [ [| Value.Int 1; Value.Int 1; Value.Float 0. |] ] in
  Alcotest.(check int) "left empty" 0 (Ops.count (unit_span_join [] some));
  Alcotest.(check int) "right empty" 0 (Ops.count (unit_span_join some []));
  Alcotest.(check int) "neither empty" 1 (Ops.count (unit_span_join some some))

(* --- planner --- *)

let catalog () =
  let genes =
    Col_store.of_rows
      (Schema.make [ ("gene_id", Value.TInt); ("func", Value.TInt) ])
      (List.init 40 (fun i -> [| Value.Int i; Value.Int (i * 25) |]))
  in
  let micro =
    Col_store.of_rows
      (Schema.make
         [ ("gene_id", Value.TInt); ("patient_id", Value.TInt); ("value", Value.TFloat) ])
      (List.concat_map
         (fun g ->
           List.init 5 (fun p ->
               [| Value.Int g; Value.Int p; Value.Float (float_of_int (g + p)) |]))
         (List.init 40 Fun.id))
  in
  let table = function
    | "genes" -> genes
    | "microarray" -> micro
    | t -> invalid_arg t
  in
  {
    Plan.scan = (fun ?keep t cols -> Ops.scan_col_store ?keep (table t) cols);
    schema_of = (fun t -> Col_store.schema (table t));
    row_count = (fun t -> Col_store.row_count (table t));
  }

let q () =
  Plan.Filter
    ( Expr.(col "func" <% int 250),
      Plan.Join
        {
          left = Plan.Scan ("microarray", []);
          right = Plan.Scan ("genes", []);
          on = [ ("gene_id", "gene_id") ];
        } )

let test_planner_semantics_preserved () =
  let cat = catalog () in
  let plan = q () in
  let naive = Ops.to_list (Plan.execute ~optimize_first:false cat plan) in
  let optimized = Ops.to_list (Plan.execute cat plan) in
  Alcotest.(check int) "10 genes x 5 patients" 50 (List.length naive);
  Alcotest.(check int) "optimized same count" 50 (List.length optimized)

let test_planner_pushes_predicate () =
  let cat = catalog () in
  let optimized = Plan.optimize cat (q ()) in
  (* The filter must now sit beneath the join, on the genes side. *)
  let rec has_filter_above_join = function
    | Plan.Filter (_, Plan.Join _) -> true
    | Plan.Filter (_, p) | Plan.Project (_, p) -> has_filter_above_join p
    | Plan.Join { left; right; _ } | Plan.Interval_join { left; right; _ } ->
      has_filter_above_join left || has_filter_above_join right
    | Plan.Scan _ -> false
  in
  Alcotest.(check bool) "no filter above join"
    (not (has_filter_above_join optimized))
    true

let test_planner_prunes_columns () =
  let cat = catalog () in
  let plan = Plan.Project ([ "value" ], q ()) in
  let optimized = Plan.optimize cat plan in
  let rec scans acc = function
    | Plan.Scan (t, cols) -> (t, cols) :: acc
    | Plan.Filter (_, p) | Plan.Project (_, p) -> scans acc p
    | Plan.Join { left; right; _ } | Plan.Interval_join { left; right; _ } ->
      scans (scans acc left) right
  in
  let micro_cols = List.assoc "microarray" (scans [] optimized) in
  Alcotest.(check bool) "patient_id pruned from microarray scan"
    (not (List.mem "patient_id" micro_cols))
    true;
  (* And the result is still correct. *)
  let rows = Ops.to_list (Plan.execute cat plan) in
  Alcotest.(check int) "rows" 50 (List.length rows);
  Alcotest.(check int) "single column" 1 (Array.length (List.hd rows))

let test_planner_explain () =
  let cat = catalog () in
  let text = Plan.explain cat (q ()) in
  Alcotest.(check bool) "mentions join"
    (Astring_contains.contains text "HashJoin")
    true;
  Alcotest.(check bool) "mentions scan"
    (Astring_contains.contains text "Scan microarray")
    true;
  Alcotest.(check bool) "has estimates" (Astring_contains.contains text "rows")
    true

let suite =
  [
    ("merge join = hash join", `Quick, test_sweep_join_matches_hash_join);
    ("merge join empty sides", `Quick, test_sweep_join_empty_sides);
    ("planner preserves semantics", `Quick, test_planner_semantics_preserved);
    ("planner pushes predicates", `Quick, test_planner_pushes_predicate);
    ("planner prunes columns", `Quick, test_planner_prunes_columns);
    ("planner explain", `Quick, test_planner_explain);
  ]
