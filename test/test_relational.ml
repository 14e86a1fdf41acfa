open Gb_relational
module Mat = Gb_linalg.Mat

let s2 = Schema.make [ ("id", Value.TInt); ("v", Value.TFloat) ]

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

(* --- Value --- *)

let test_value_compare () =
  Alcotest.(check int) "int" (-1) (Value.compare (Value.Int 1) (Value.Int 2));
  Alcotest.(check bool) "mixed numeric"
    (Value.compare (Value.Int 2) (Value.Float 2.0) = 0)
    true;
  Alcotest.(check bool) "str order"
    (Value.compare (Value.Str "a") (Value.Str "b") < 0)
    true

let test_value_strings () =
  Alcotest.(check string) "int" "42" (Value.to_string (Value.Int 42));
  let v = Value.of_string Value.TFloat "3.25" in
  Alcotest.(check bool) "parse float" (Value.to_float v = 3.25) true

(* --- Schema --- *)

let test_schema_basics () =
  Alcotest.(check int) "arity" 2 (Schema.arity s2);
  Alcotest.(check int) "index" 1 (Schema.index s2 "v");
  Alcotest.(check bool) "mem" (Schema.mem s2 "id") true;
  Alcotest.(check bool) "not mem" (Schema.mem s2 "zz") false

let test_schema_duplicate () =
  Alcotest.check_raises "dup" (Invalid_argument "Schema.make: duplicate column x")
    (fun () -> ignore (Schema.make [ ("x", Value.TInt); ("x", Value.TInt) ]))

let test_schema_concat_renames () =
  let joined = Schema.concat s2 s2 in
  Alcotest.(check int) "arity" 4 (Schema.arity joined);
  Alcotest.(check int) "renamed" 2 (Schema.index joined "id_r")

let test_schema_validate () =
  Alcotest.(check bool) "ok"
    (Schema.validate_row s2 [| Value.Int 1; Value.Float 2. |])
    true;
  Alcotest.(check bool) "bad type"
    (Schema.validate_row s2 [| Value.Float 1.; Value.Float 2. |])
    false

(* --- Codec / Row store --- *)

let people_schema =
  Schema.make
    [ ("id", Value.TInt); ("name", Value.TStr); ("score", Value.TFloat) ]

let test_codec_roundtrip () =
  let row = [| Value.Int 7; Value.Str "alice"; Value.Float 1.5 |] in
  let buf = Bytes.create 256 in
  let n = Codec.encode people_schema row buf 0 in
  Alcotest.(check int) "size" (Codec.encoded_size people_schema row) n;
  let back, consumed = Codec.decode people_schema buf 0 in
  Alcotest.(check int) "consumed" n consumed;
  Alcotest.check rows_eq "row" [ row ] [ back ]

let test_row_store_scan () =
  let rows =
    List.init 100 (fun i ->
        [| Value.Int i; Value.Str (Printf.sprintf "p%d" i); Value.Float (float_of_int i) |])
  in
  let rs = Row_store.of_rows people_schema rows in
  Alcotest.(check int) "count" 100 (Row_store.row_count rs);
  Alcotest.check rows_eq "scan order" rows (List.of_seq (Row_store.to_seq rs))

let test_row_store_spans_pages () =
  let big = String.make 10_000 'x' in
  let rows =
    List.init 50 (fun i -> [| Value.Int i; Value.Str big; Value.Float 0. |])
  in
  let rs = Row_store.of_rows people_schema rows in
  Alcotest.(check bool) "multiple pages" (Row_store.page_count rs > 1) true;
  Alcotest.(check int) "all rows back" 50
    (List.length (List.of_seq (Row_store.to_seq rs)))

(* --- Column compression --- *)

let test_column_rle () =
  let vals = Array.init 1000 (fun i -> Value.Int (i / 100)) in
  let c = Column.compress Value.TInt vals in
  Alcotest.(check string) "rle chosen" "int-rle" (Column.encoding_name c);
  Alcotest.(check bool) "compressed smaller" (Column.byte_size c < 8000) true;
  Array.iteri
    (fun i v -> Alcotest.(check bool) "get" (Value.equal v (Column.get c i)) true)
    vals

let test_column_for () =
  let g = Gb_util.Prng.create 4L in
  let vals = Array.init 500 (fun _ -> Value.Int (1000 + Gb_util.Prng.int g 50)) in
  let c = Column.compress Value.TInt vals in
  Alcotest.(check string) "for chosen" "int-for" (Column.encoding_name c);
  Array.iteri
    (fun i v -> Alcotest.(check bool) "get" (Value.equal v (Column.get c i)) true)
    vals

let test_column_dict () =
  let vals =
    Array.init 100 (fun i -> Value.Str (if i mod 2 = 0 then "aa" else "bb"))
  in
  let c = Column.compress Value.TStr vals in
  Alcotest.(check string) "dict" "str-dict" (Column.encoding_name c);
  Alcotest.(check bool) "roundtrip"
    (Array.init (Column.length c) (Column.get c) = vals)
    true

(* A reader asked out of order, as a re-forced scan suffix asks it. *)
let test_column_reader_matches_get () =
  let g = Gb_util.Prng.create 8L in
  let floats = Array.init 300 (fun _ -> Value.Float (Gb_util.Prng.normal g)) in
  let runs = Array.init 300 (fun i -> Value.Int (i / 25)) in
  List.iter
    (fun (ty, vals) ->
      let c = Column.compress ty vals in
      let read = Column.reader c in
      for _ = 1 to 600 do
        let i = Gb_util.Prng.int g 300 in
        Alcotest.(check bool) "same" (Value.equal (read i) (Column.get c i)) true
      done)
    [ (Value.TFloat, floats); (Value.TInt, runs) ]

(* --- Col store --- *)

let test_col_store_roundtrip () =
  let rows =
    List.init 40 (fun i ->
        [| Value.Int i; Value.Str "s"; Value.Float (float_of_int (i * i)) |])
  in
  let cs = Col_store.of_rows people_schema rows in
  Alcotest.(check int) "rows" 40 (Col_store.row_count cs);
  Alcotest.check rows_eq "full scan" rows
    (List.of_seq (Col_store.to_seq cs [ "id"; "name"; "score" ]))

let test_col_store_late_materialization () =
  let rows =
    List.init 10 (fun i -> [| Value.Int i; Value.Str "x"; Value.Float 0. |])
  in
  let cs = Col_store.of_rows people_schema rows in
  let only_ids = List.of_seq (Col_store.to_seq cs [ "id" ]) in
  Alcotest.(check int) "width 1" 1 (Array.length (List.hd only_ids))

(* Cells equal bit for bit: NaN equals NaN, -0. differs from 0. *)
let same_value a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let same_rows a b =
  List.length a = List.length b && List.for_all2 (Array.for_all2 same_value) a b

(* Every encoding, forced: wide ints stay plain, long runs go run-length,
   a narrow range goes frame-of-reference. *)
let every_encoding_store g n =
  let pick = Gb_util.Prng.int g in
  let wide = Array.init n (fun i -> (i * 7919 mod 13) lsl 40 + pick 1000) in
  let runs = Array.init n (fun i -> (i / 9) - 3) in
  let narrow = Array.init n (fun _ -> 500 + pick 300) in
  let words = [| "a"; "bb"; ""; "ccc" |] in
  let strs = Array.init n (fun _ -> Value.Str words.(pick 4)) in
  let special = [| Float.nan; -0.; 0.; Float.infinity; -1.5 |] in
  let floats =
    Array.init n (fun i ->
        if i mod 3 = 0 then special.(pick 5) else Gb_util.Prng.normal g)
  in
  let schema =
    Schema.make
      [ ("plain", Value.TInt); ("rle", Value.TInt); ("for", Value.TInt);
        ("dict", Value.TStr); ("float", Value.TFloat) ]
  in
  let columns =
    [| Column.of_ints wide; Column.of_ints runs; Column.of_ints narrow;
       Column.compress Value.TStr strs; Column.Float_plain floats |]
  in
  (schema, columns, Col_store.of_compressed schema columns)

let test_col_store_scan_matches_get () =
  let g = Gb_util.Prng.create 0x5CA7L in
  let names = [| "plain"; "rle"; "for"; "dict"; "float" |] in
  List.iter
    (fun n ->
      let schema, columns, cs = every_encoding_store g n in
      if n >= 40 then
        Alcotest.(check (list string))
          "every encoding"
          [ "int-plain"; "int-rle"; "int-for"; "str-dict"; "float-plain" ]
          (Array.to_list (Array.map Column.encoding_name columns));
      for _ = 1 to 6 do
        (* Reordered, repeated, possibly empty projections. *)
        let proj =
          List.init (Gb_util.Prng.int g 8) (fun _ -> names.(Gb_util.Prng.int g 5))
        in
        let expected =
          List.init n (fun r ->
              Array.of_list
                (List.map
                   (fun name -> Column.get columns.(Schema.index schema name) r)
                   proj))
        in
        let seq = Col_store.to_seq cs proj in
        let label = Printf.sprintf "n=%d [%s]" n (String.concat "," proj) in
        Alcotest.(check bool) (label ^ " first pass") true
          (same_rows expected (List.of_seq seq));
        Alcotest.(check bool) (label ^ " second pass") true
          (same_rows expected (List.of_seq seq));
        (* Force every suffix again, last first: a reader's cursor must
           not depend on the order it is asked in. *)
        let rec suffixes acc s =
          match s () with
          | Seq.Nil -> acc
          | Seq.Cons (_, tl) -> suffixes (s :: acc) tl
        in
        let heads =
          List.map
            (fun s -> match s () with Seq.Cons (row, _) -> row | Seq.Nil -> [||])
            (suffixes [] seq)
        in
        Alcotest.(check bool) (label ^ " suffixes forced backwards") true
          (same_rows (List.rev expected) heads)
      done)
    [ 0; 1; 40; 257 ]

(* The scan counters tick when the scan is set up, once per row and once
   per cell of the projection. *)
let test_col_store_scan_counters () =
  let module Tele = Gb_obs.Telemetry in
  let _, _, cs = every_encoding_store (Gb_util.Prng.create 3L) 50 in
  Tele.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Tele.set_enabled false)
    (fun () ->
      let before = Tele.counter_snapshot () in
      let seq = Col_store.to_seq cs [ "rle"; "float"; "rle" ] in
      let moved = Tele.counter_delta before in
      Alcotest.(check (list (pair string (float 0.))))
        "rows and values"
        [ ("storage_rows_scanned", 50.); ("storage_values_decoded", 150.) ]
        moved;
      ignore (List.of_seq seq))

(* --- Expr / Ops --- *)

let sample_rel () =
  Ops.of_list s2
    (List.init 10 (fun i -> [| Value.Int i; Value.Float (float_of_int (i * 2)) |]))

let test_filter () =
  let r = Ops.filter Expr.(col "id" <% int 3) (sample_rel ()) in
  Alcotest.(check int) "three rows" 3 (Ops.count r)

let test_filter_compound () =
  let r =
    Ops.filter
      Expr.(col "id" >=% int 2 &&% (col "v" <% float 10.))
      (sample_rel ())
  in
  Alcotest.(check int) "rows 2..4" 3 (Ops.count r)

let test_project () =
  let r = Ops.project [ "v" ] (sample_rel ()) in
  Alcotest.(check int) "arity" 1 (Schema.arity r.Ops.schema);
  Alcotest.(check int) "count preserved" 10 (Ops.count r)

let test_map_column () =
  let r = Ops.map_column "double" Expr.(Arith (Mul, col "v", float 2.)) (sample_rel ()) in
  let rows = Ops.to_list r in
  Alcotest.(check bool) "computed"
    (Value.to_float (List.nth rows 3).(2) = 12.)
    true

let test_hash_join_vs_nested_loop () =
  let g = Gb_util.Prng.create 31L in
  let left =
    List.init 200 (fun i ->
        [| Value.Int (Gb_util.Prng.int g 30); Value.Float (float_of_int i) |])
  in
  let right =
    List.init 50 (fun i ->
        [| Value.Int (Gb_util.Prng.int g 30); Value.Float (float_of_int (1000 + i)) |])
  in
  let lr = Ops.of_list s2 left and rr = Ops.of_list s2 right in
  let joined = Ops.hash_join ~on:[ ("id", "id") ] lr rr in
  let expected =
    List.concat_map
      (fun l ->
        List.filter_map
          (fun r ->
            if Value.equal l.(0) r.(0) then Some (Array.append l r) else None)
          right)
      left
  in
  let sort rows =
    List.sort
      (fun a b ->
        compare
          (Array.map Value.to_string a)
          (Array.map Value.to_string b))
      rows
  in
  Alcotest.check rows_eq "join equals nested loop" (sort expected)
    (sort (Ops.to_list joined))

(* The reference for rows and their order: a hash join keyed on the
   list of the key cells, whose hash and equality a one-column join on
   the bare value must keep. *)
let list_key_join ~on (left : Ops.rel) (right : Ops.rel) =
  let lidx = List.map (fun (l, _) -> Schema.index left.Ops.schema l) on in
  let ridx = List.map (fun (_, r) -> Schema.index right.Ops.schema r) on in
  let key idx row = List.map (fun i -> row.(i)) idx in
  let table = Hashtbl.create 16 in
  Seq.iter
    (fun row ->
      let k = key ridx row in
      let existing = try Hashtbl.find table k with Not_found -> [] in
      Hashtbl.replace table k (row :: existing))
    right.Ops.rows;
  List.concat_map
    (fun lrow ->
      match Hashtbl.find_opt table (key lidx lrow) with
      | None -> []
      | Some ms -> List.map (fun rrow -> Array.append lrow rrow) (List.rev ms))
    (Ops.to_list left)

let test_hash_join_matches_list_key () =
  let g = Gb_util.Prng.create 0x101L in
  let ints = [| Value.Int 0; Value.Int 1; Value.Int (-7); Value.Int max_int |] in
  let floats =
    [| Value.Float 1.; Value.Float 0.; Value.Float (-0.); Value.Float Float.nan;
       Value.Float 2.5 |]
  in
  let strs = [| Value.Str ""; Value.Str "1"; Value.Str "a"; Value.Str "bb" |] in
  (* [Int 1] against [Float 1.], NaN and -0. against 0., across types. *)
  let mixed = Array.concat [ ints; floats; strs ] in
  let schema =
    Schema.make [ ("k", Value.TFloat); ("k2", Value.TInt); ("tag", Value.TInt) ]
  in
  List.iter
    (fun (pool_name, pool) ->
      let rows n base =
        List.init n (fun i ->
            [| pool.(Gb_util.Prng.int g (Array.length pool));
               Value.Int (Gb_util.Prng.int g 2); Value.Int (base + i) |])
      in
      let left = rows 120 0 and right = rows 30 1000 in
      List.iter
        (fun on ->
          let rel rs = Ops.of_list schema rs in
          let expected = list_key_join ~on (rel left) (rel right) in
          let got = Ops.to_list (Ops.hash_join ~on (rel left) (rel right)) in
          Alcotest.(check bool)
            (Printf.sprintf "%s keys on %d column(s): %d rows, same order"
               pool_name (List.length on) (List.length expected))
            true (same_rows expected got))
        [ [ ("k", "k") ]; [ ("k", "k"); ("k2", "k2") ] ])
    [ ("int", ints); ("float", floats); ("str", strs); ("mixed", mixed) ]

let test_aggregate () =
  let r =
    Ops.of_list s2
      [
        [| Value.Int 1; Value.Float 10. |];
        [| Value.Int 1; Value.Float 20. |];
        [| Value.Int 2; Value.Float 5. |];
      ]
  in
  let agg =
    Ops.aggregate ~group_by:[ "id" ]
      ~aggs:
        [
          ("total", Ops.Sum "v");
          ("n", Ops.Count);
          ("avg", Ops.Avg "v");
          ("lo", Ops.Min "v");
          ("hi", Ops.Max "v");
        ]
      r
  in
  let rows =
    Ops.to_list agg
    |> List.sort (fun a b -> Value.compare a.(0) b.(0))
  in
  let first = List.hd rows in
  Alcotest.(check bool) "sum" (Value.to_float first.(1) = 30.) true;
  Alcotest.(check int) "count" 2 (Value.to_int first.(2));
  Alcotest.(check bool) "avg" (Value.to_float first.(3) = 15.) true;
  Alcotest.(check bool) "min" (Value.to_float first.(4) = 10.) true;
  Alcotest.(check bool) "max" (Value.to_float first.(5) = 20.) true

let test_guard_fires () =
  let fired = ref 0 in
  let r = Ops.guard ~interval:3 (fun () -> incr fired) (sample_rel ()) in
  ignore (Ops.count r);
  Alcotest.(check int) "fired thrice" 3 !fired

(* --- Pivot --- *)

let test_pivot_roundtrip () =
  let m = Mat.init 4 3 (fun i j -> float_of_int ((i * 3) + j)) in
  let rel =
    Pivot.to_triples ~row_col:"r" ~col_col:"c" ~value_col:"v"
      { Pivot.matrix = m; row_ids = [| 10; 20; 30; 40 |]; col_ids = [| 1; 2; 3 |] }
  in
  let piv = Pivot.of_triples ~row_col:"r" ~col_col:"c" ~value_col:"v" rel in
  Alcotest.(check bool) "matrix back" (Mat.equal m piv.Pivot.matrix) true;
  Alcotest.(check (array int)) "row ids" [| 10; 20; 30; 40 |] piv.Pivot.row_ids;
  Alcotest.(check (array int)) "col ids" [| 1; 2; 3 |] piv.Pivot.col_ids

(* --- Export --- *)

let test_export_rel_roundtrip () =
  let rel = sample_rel () in
  let back = Export.roundtrip_rel (sample_rel ()) in
  Alcotest.check rows_eq "roundtrip" (Ops.to_list rel) (Ops.to_list back)

let test_export_matrix_roundtrip () =
  let m = Mat.random (Gb_util.Prng.create 3L) 7 5 in
  let back = Export.roundtrip_matrix m in
  Alcotest.(check bool) "close" (Mat.max_abs_diff m back < 1e-9) true

(* --- Sql_linalg --- *)

let test_sql_matmul () =
  let g = Gb_util.Prng.create 21L in
  let a = Mat.random g 6 4 and b = Mat.random g 4 5 in
  let out =
    Sql_linalg.to_matrix ~rows:6 ~cols:5
      (Sql_linalg.matmul (Sql_linalg.of_matrix a) (Sql_linalg.of_matrix b))
  in
  Alcotest.(check bool) "matches gemm"
    (Mat.max_abs_diff out (Gb_linalg.Blas.gemm a b) < 1e-9)
    true

let test_sql_transpose () =
  let m = Mat.random (Gb_util.Prng.create 22L) 3 5 in
  let t =
    Sql_linalg.to_matrix ~rows:5 ~cols:3
      (Sql_linalg.transpose (Sql_linalg.of_matrix m))
  in
  Alcotest.(check bool) "transpose" (Mat.equal t (Mat.transpose m)) true

let test_sql_covariance () =
  let m = Mat.random (Gb_util.Prng.create 23L) 12 6 in
  let sql =
    Sql_linalg.to_matrix ~rows:6 ~cols:6
      (Sql_linalg.covariance ~rows:12 (Sql_linalg.of_matrix m))
  in
  Alcotest.(check bool) "matches native"
    (Mat.max_abs_diff sql (Gb_linalg.Covariance.matrix m) < 1e-9)
    true

let test_sql_power_iteration () =
  let g = Gb_util.Prng.create 24L in
  let m = Mat.random g 20 6 in
  let eigs =
    Sql_linalg.power_iteration_eigs ~rows:20 ~cols:6 ~k:2 ~iters:60
      (Sql_linalg.of_matrix m)
  in
  let exact =
    Gb_linalg.Lanczos.top_eigen ~rng:g (Gb_linalg.Blas.ata m) 2
  in
  Array.iteri
    (fun i e ->
      Alcotest.(check bool) "within 2%"
        (Float.abs (e -. exact.Gb_linalg.Lanczos.eigenvalues.(i))
        < 0.02 *. exact.Gb_linalg.Lanczos.eigenvalues.(i))
        true)
    eigs

let prop_codec_roundtrip =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 20)
        (triple (int_range (-1000000) 1000000) (float_bound_exclusive 1e6)
           (string_size ~gen:printable (int_range 0 40))))
  in
  QCheck.Test.make ~name:"codec roundtrips random rows" ~count:100
    (QCheck.make gen) (fun rows ->
      let buf = Bytes.create (64 * 1024) in
      List.for_all
        (fun (i, f, s) ->
          let row = [| Value.Int i; Value.Str s; Value.Float f |] in
          let n = Codec.encode people_schema row buf 0 in
          let back, consumed = Codec.decode people_schema buf 0 in
          n = consumed && Array.for_all2 Value.equal row back)
        rows)

let prop_column_compress_roundtrip =
  QCheck.Test.make ~name:"column compression roundtrips" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 300) (int_range (-50) 50))
    (fun ints ->
      let vals = Array.of_list (List.map (fun i -> Value.Int i) ints) in
      let c = Column.compress Value.TInt vals in
      Array.init (Column.length c) (Column.get c) = vals)

(* --- interval join: operator, planner node, EXPLAIN ANALYZE --- *)

let interval_catalog () =
  let variants =
    Col_store.of_rows
      (Schema.make
         [ ("variant_id", Value.TInt); ("vstart", Value.TInt); ("vlen", Value.TInt) ])
      [
        [| Value.Int 0; Value.Int 0; Value.Int 10 |];
        [| Value.Int 1; Value.Int 5; Value.Int 15 |];
        [| Value.Int 2; Value.Int 30; Value.Int 5 |];
        (* empty interval: joins nothing *)
        [| Value.Int 3; Value.Int 50; Value.Int 0 |];
      ]
  in
  let genes =
    Col_store.of_rows
      (Schema.make
         [ ("gene_id", Value.TInt); ("position", Value.TInt); ("length", Value.TInt) ])
      [
        [| Value.Int 0; Value.Int 0; Value.Int 8 |];
        [| Value.Int 1; Value.Int 15; Value.Int 25 |];
        [| Value.Int 2; Value.Int 100; Value.Int 20 |];
      ]
  in
  let table = function
    | "variants" -> variants
    | "genes" -> genes
    | t -> invalid_arg t
  in
  {
    Plan.scan = (fun t cols -> Ops.scan_col_store (table t) cols);
    schema_of = (fun t -> Col_store.schema (table t));
    row_count = (fun t -> Col_store.row_count (table t));
  }

let interval_plan ?(min_overlap = 1) () =
  Plan.Interval_join
    {
      left = Plan.Scan ("variants", []);
      right = Plan.Scan ("genes", []);
      left_span = ("vstart", "vlen");
      right_span = ("position", "length");
      min_overlap;
    }

let test_interval_join_plan_rows () =
  let cat = interval_catalog () in
  let rel = Plan.execute cat (interval_plan ()) in
  let s = rel.Ops.schema in
  Alcotest.(check int) "overlap_len appended" 7 (Schema.arity s);
  let pick row =
    ( Value.to_int row.(Schema.index s "variant_id"),
      Value.to_int row.(Schema.index s "gene_id"),
      Value.to_int row.(Schema.index s "overlap_len") )
  in
  (* Canonical (variant_id, gene_id) order; hand-checked overlaps. *)
  Alcotest.(check (list (triple int int int)))
    "pairs"
    [ (0, 0, 8); (1, 0, 3); (1, 1, 5); (2, 1, 5) ]
    (List.map pick (Ops.to_list rel));
  (* min_overlap filters the 3-base pair out. *)
  let rel4 = Plan.execute cat (interval_plan ~min_overlap:4 ()) in
  Alcotest.(check int) "min_overlap 4 keeps 3 pairs" 3
    (List.length (Ops.to_list rel4))

let test_interval_join_explain_analyze () =
  let cat = interval_catalog () in
  (* A gene-side predicate above the interval join: pushdown must route
     it below the join, and the footnote must say so. *)
  let plan =
    Plan.Filter (Expr.(col "position" <% int 50), interval_plan ())
  in
  let _, fired = Plan.optimize_steps cat plan in
  Alcotest.(check bool) "pushdown step fired"
    (List.mem "predicate pushdown" fired)
    true;
  let text = Plan.explain_analyze cat plan in
  let has s = Astring_contains.contains text s in
  Alcotest.(check bool) "names the node" (has "IntervalJoin") true;
  Alcotest.(check bool) "spans in description"
    (has "vstart+vlen overlaps position+length")
    true;
  (* est vs actual on the node itself: the estimate is the planner's
     3/2-per-left-row guess (6), the actual the true pair count (4). *)
  Alcotest.(check bool) "est vs actual overlap counts"
    (has "est 6 | actual 4 rows")
    true;
  (* the filter was pushed to the gene side, so only 2 of 3 genes are
     swept against the 4 variants *)
  Alcotest.(check bool) "swept input sizes" (has "swept 4 x 2 intervals") true;
  Alcotest.(check bool) "optimizer footnote"
    (has "-- optimizer:" && has "predicate pushdown")
    true

let suite =
  [
    ("value compare", `Quick, test_value_compare);
    ("value strings", `Quick, test_value_strings);
    ("schema basics", `Quick, test_schema_basics);
    ("schema duplicate", `Quick, test_schema_duplicate);
    ("schema concat renames", `Quick, test_schema_concat_renames);
    ("schema validate", `Quick, test_schema_validate);
    ("codec roundtrip", `Quick, test_codec_roundtrip);
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    QCheck_alcotest.to_alcotest prop_column_compress_roundtrip;
    ("row store scan", `Quick, test_row_store_scan);
    ("row store spans pages", `Quick, test_row_store_spans_pages);
    ("column rle", `Quick, test_column_rle);
    ("column frame-of-reference", `Quick, test_column_for);
    ("column dictionary", `Quick, test_column_dict);
    ("column reader matches get", `Quick, test_column_reader_matches_get);
    ("col store roundtrip", `Quick, test_col_store_roundtrip);
    ("col store late materialization", `Quick, test_col_store_late_materialization);
    ("col store scan matches Column.get", `Quick, test_col_store_scan_matches_get);
    ("col store scan counters", `Quick, test_col_store_scan_counters);
    ("filter", `Quick, test_filter);
    ("filter compound", `Quick, test_filter_compound);
    ("project", `Quick, test_project);
    ("map column", `Quick, test_map_column);
    ("hash join vs nested loop", `Quick, test_hash_join_vs_nested_loop);
    ("hash join matches list-key join", `Quick, test_hash_join_matches_list_key);
    ("aggregate", `Quick, test_aggregate);
    ("guard fires", `Quick, test_guard_fires);
    ("pivot roundtrip", `Quick, test_pivot_roundtrip);
    ("export rel roundtrip", `Quick, test_export_rel_roundtrip);
    ("export matrix roundtrip", `Quick, test_export_matrix_roundtrip);
    ("sql matmul", `Quick, test_sql_matmul);
    ("sql transpose", `Quick, test_sql_transpose);
    ("sql covariance", `Quick, test_sql_covariance);
    ("sql power iteration", `Quick, test_sql_power_iteration);
    ("interval join plan rows", `Quick, test_interval_join_plan_rows);
    ("interval join explain analyze", `Quick, test_interval_join_explain_analyze);
  ]

