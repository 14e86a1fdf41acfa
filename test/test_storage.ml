(* Buffer pool, disk-spilling paged store, and the heap/top-k utility. *)

open Gb_relational

let test_pool_roundtrip () =
  let pool = Buffer_pool.create ~frames:4 ~page_bytes:128 () in
  let ids = List.init 16 (fun _ -> Buffer_pool.allocate pool) in
  List.iteri
    (fun i id ->
      Buffer_pool.with_page pool id (fun buf ->
          Bytes.set_int32_le buf 0 (Int32.of_int (i * 7))))
    ids;
  (* 16 pages through 4 frames: most must have been evicted and written. *)
  Alcotest.(check bool) "evictions happened"
    ((Buffer_pool.stats pool).Buffer_pool.evictions > 0)
    true;
  List.iteri
    (fun i id ->
      Buffer_pool.read_page pool id (fun buf ->
          Alcotest.(check int32) "value survives eviction"
            (Int32.of_int (i * 7))
            (Bytes.get_int32_le buf 0)))
    ids;
  Alcotest.(check int) "resident bounded" 4 (Buffer_pool.resident_pages pool);
  Buffer_pool.close pool

let test_pool_hit_tracking () =
  let pool = Buffer_pool.create ~frames:2 ~page_bytes:64 () in
  let a = Buffer_pool.allocate pool in
  Buffer_pool.read_page pool a (fun _ -> ());
  Buffer_pool.read_page pool a (fun _ -> ());
  let s = Buffer_pool.stats pool in
  Alcotest.(check bool) "hits recorded" (s.Buffer_pool.hits >= 2) true;
  Buffer_pool.close pool

let test_pool_closed () =
  let pool = Buffer_pool.create ~page_bytes:64 () in
  let id = Buffer_pool.allocate pool in
  Buffer_pool.close pool;
  Alcotest.check_raises "closed" (Invalid_argument "Buffer_pool: closed")
    (fun () -> Buffer_pool.read_page pool id (fun _ -> ()))

let people_schema =
  Schema.make [ ("id", Value.TInt); ("name", Value.TStr); ("v", Value.TFloat) ]

let mk_rows n =
  List.init n (fun i ->
      [| Value.Int i; Value.Str (Printf.sprintf "row%d" i); Value.Float (float_of_int i *. 0.5) |])

let test_paged_store_scan () =
  let rows = mk_rows 5_000 in
  (* 4 frames x 64 KB but ~5000 x ~30B rows: a few pages, no spill. *)
  let ps = Paged_store.of_rows ~pool_frames:4 people_schema rows in
  Alcotest.(check int) "count" 5_000 (Paged_store.row_count ps);
  let back = List.of_seq (Paged_store.to_seq ps) in
  Alcotest.(check int) "all rows" 5_000 (List.length back);
  List.iteri
    (fun i row ->
      Alcotest.(check int) "order" i (Value.to_int row.(0)))
    back;
  Paged_store.close ps

let test_paged_store_spills () =
  (* 2 frames of 64 KB and a large string payload: the table must spill to
     disk and still scan back exactly. *)
  let big = String.make 4_000 'z' in
  let rows =
    List.init 200 (fun i ->
        [| Value.Int i; Value.Str big; Value.Float (float_of_int i) |])
  in
  let ps = Paged_store.of_rows ~pool_frames:2 people_schema rows in
  Alcotest.(check bool) "many pages" (Paged_store.page_count ps > 4) true;
  let stats = Paged_store.pool_stats ps in
  Alcotest.(check bool) "spilled" (stats.Buffer_pool.evictions > 0) true;
  let back = List.of_seq (Paged_store.to_seq ps) in
  Alcotest.(check int) "all rows" 200 (List.length back);
  List.iteri
    (fun i row ->
      Alcotest.(check int) "id" i (Value.to_int row.(0));
      Alcotest.(check bool) "payload intact"
        (match row.(1) with Value.Str s -> s = big | _ -> false)
        true)
    back;
  Paged_store.close ps

let test_paged_matches_row_store () =
  let rows = mk_rows 777 in
  let rs = Row_store.of_rows people_schema rows in
  let ps = Paged_store.of_rows ~pool_frames:2 people_schema rows in
  let a = List.of_seq (Row_store.to_seq rs) in
  let b = List.of_seq (Paged_store.to_seq ps) in
  Alcotest.(check bool) "identical scans"
    (List.for_all2 (fun x y -> Array.for_all2 Value.equal x y) a b)
    true;
  Paged_store.close ps

(* --- heap --- *)

let test_heap_sorts () =
  let h = Gb_util.Heap.create ~cmp:Int.compare in
  List.iter (Gb_util.Heap.push h) [ 5; 1; 4; 1; 5; 9; 2; 6 ];
  Alcotest.(check (list int)) "ascending" [ 1; 1; 2; 4; 5; 5; 6; 9 ]
    (Gb_util.Heap.to_sorted_list h)

let test_heap_top_k () =
  let xs = List.init 1000 (fun i -> (i * 37) mod 1000) in
  let top = Gb_util.Heap.top_k ~cmp:Int.compare 5 (List.to_seq xs) in
  Alcotest.(check (list int)) "five largest" [ 999; 998; 997; 996; 995 ] top;
  Alcotest.(check (list int)) "k > n" [ 2; 1 ]
    (Gb_util.Heap.top_k ~cmp:Int.compare 5 (List.to_seq [ 1; 2 ]));
  Alcotest.(check (list int)) "k = 0" []
    (Gb_util.Heap.top_k ~cmp:Int.compare 0 (List.to_seq [ 1; 2 ]))

let prop_top_k_matches_sort =
  QCheck.Test.make ~name:"top_k = take k of sort" ~count:100
    QCheck.(pair (int_range 1 20) (list_of_size (QCheck.Gen.int_range 0 200) int))
    (fun (k, xs) ->
      let expected =
        List.filteri (fun i _ -> i < k) (List.sort (Fun.flip Int.compare) xs)
      in
      Gb_util.Heap.top_k ~cmp:Int.compare k (List.to_seq xs) = expected)

let suite =
  [
    ("pool roundtrip with eviction", `Quick, test_pool_roundtrip);
    ("pool hit tracking", `Quick, test_pool_hit_tracking);
    ("pool closed", `Quick, test_pool_closed);
    ("paged store scan", `Quick, test_paged_store_scan);
    ("paged store spills to disk", `Quick, test_paged_store_spills);
    ("paged store = row store", `Quick, test_paged_matches_row_store);
    ("heap sorts", `Quick, test_heap_sorts);
    ("heap top-k", `Quick, test_heap_top_k);
    QCheck_alcotest.to_alcotest prop_top_k_matches_sort;
  ]
