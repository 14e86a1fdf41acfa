(* Unit and property tests for the Q6 interval primitives: the sweep
   and indexed kernels must agree exactly with the quadratic definition,
   and the bin ownership rule must assign every pair to exactly one
   bin. *)

open Gb_util

let iv id lo hi = Ranges.make ~id ~lo ~hi

let canon pairs =
  List.sort
    (fun (a1, b1, _) (a2, b2, _) ->
      let c = Int.compare a1 a2 in
      if c <> 0 then c else Int.compare b1 b2)
    pairs

(* --- constructors and overlap length --- *)

let test_make_rejects_inverted () =
  Alcotest.check_raises "hi < lo" (Invalid_argument "Ranges.make: hi < lo")
    (fun () -> ignore (Ranges.make ~id:0 ~lo:5 ~hi:4))

let test_overlap_len_cases () =
  let check name expect a b =
    Alcotest.(check int) name expect (Ranges.overlap_len a b);
    Alcotest.(check int) (name ^ " (sym)") expect (Ranges.overlap_len b a)
  in
  check "disjoint" 0 (iv 0 0 10) (iv 1 20 30);
  check "adjacent share nothing" 0 (iv 0 0 10) (iv 1 10 20);
  check "partial" 5 (iv 0 0 10) (iv 1 5 15);
  check "nested" 4 (iv 0 0 100) (iv 1 50 54);
  check "identical" 10 (iv 0 3 13) (iv 1 3 13);
  check "empty interval" 0 (iv 0 5 5) (iv 1 0 10);
  check "point vs cover" 1 (iv 0 7 8) (iv 1 0 100)

let test_overlaps_min_overlap () =
  let a = iv 0 0 10 and b = iv 1 5 15 in
  Alcotest.(check bool) "5bp passes 5" true (Ranges.overlaps ~min_overlap:5 a b);
  Alcotest.(check bool) "5bp fails 6" false
    (Ranges.overlaps ~min_overlap:6 a b);
  (* min_overlap is clamped to >= 1: a zero-base touch never joins. *)
  Alcotest.(check bool) "adjacent fails min_overlap 0" false
    (Ranges.overlaps ~min_overlap:0 (iv 0 0 10) (iv 1 10 20))

(* --- joins on crafted edge cases --- *)

let edge_left =
  [|
    iv 0 0 10;
    (* duplicate coordinates, distinct ids *)
    iv 1 0 10;
    (* empty *)
    iv 2 5 5;
    (* point *)
    iv 3 7 8;
    (* nested inside 0/1 *)
    iv 4 2 4;
  |]

let edge_right =
  [|
    iv 0 0 3;
    (* adjacent to [0,10) *)
    iv 1 10 20;
    (* full cover *)
    iv 2 0 100;
    (* zero-overlap far away *)
    iv 3 1000 2000;
  |]

let test_joins_agree_on_edges () =
  let nl = canon (Ranges.nested_loop_join edge_left edge_right) in
  let sw = Ranges.sweep_join edge_left edge_right in
  Alcotest.(check (list (triple int int int))) "sweep = oracle" nl sw;
  Alcotest.(check (list (triple int int int))) "indexed = oracle" nl
    (Ranges.indexed_join edge_left edge_right);
  (* empty interval (id 2) and the far interval (right id 3) join nothing;
     adjacency (left 0/1 vs right 1) contributes nothing. *)
  List.iter
    (fun (v, g, len) ->
      Alcotest.(check bool) "no empty left" true (v <> 2);
      Alcotest.(check bool) "no far right" true (g <> 3);
      Alcotest.(check bool) "positive overlap" true (len >= 1))
    sw;
  Alcotest.(check bool) "full cover catches point" true
    (List.mem (3, 2, 1) sw)

let test_join_zero_pairs () =
  let left = [| iv 0 0 5 |] and right = [| iv 0 10 15 |] in
  Alcotest.(check (list (triple int int int))) "no pairs" []
    (Ranges.sweep_join left right);
  Alcotest.(check (list (triple int int int))) "no indexed pairs" []
    (Ranges.indexed_join left right);
  Alcotest.(check int) "count" 0
    (Ranges.count_pairs (Ranges.nested_loop_join left right))

let test_join_empty_inputs () =
  Alcotest.(check (list (triple int int int))) "empty left" []
    (Ranges.sweep_join [||] edge_right);
  Alcotest.(check (list (triple int int int))) "empty right" []
    (Ranges.sweep_join edge_left [||]);
  Alcotest.(check (list (triple int int int))) "indexed, empty left" []
    (Ranges.indexed_join [||] edge_right);
  Alcotest.(check (list (triple int int int))) "indexed, empty right" []
    (Ranges.indexed_join edge_left [||])

(* --- bins --- *)

let test_bins () =
  let w = 100 in
  Alcotest.(check int) "bin_of" 1 (Ranges.bin_of ~bin_width:w 150);
  Alcotest.(check int) "bin_of negative floors" (-1)
    (Ranges.bin_of ~bin_width:w (-1));
  Alcotest.(check (list int)) "spanning" [ 0; 1; 2 ]
    (Ranges.bins_of ~bin_width:w (iv 0 50 250));
  Alcotest.(check (list int)) "within one bin" [ 3 ]
    (Ranges.bins_of ~bin_width:w (iv 0 310 320));
  Alcotest.(check (list int)) "empty touches none" []
    (Ranges.bins_of ~bin_width:w (iv 0 70 70))

let test_owns_pair_unique () =
  let w = 100 in
  (* The pair [50,250) x [150,400) overlaps in [150,250): owned only by
     the bin holding max(starts) = 150, i.e. bin 1 — even though the
     intervals jointly touch bins 0-3. *)
  let a = iv 0 50 250 and b = iv 1 150 400 in
  let owners =
    List.filter (fun bin -> Ranges.owns_pair ~bin_width:w ~bin a b) [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "exactly bin 1" [ 1 ] owners;
  Alcotest.(check bool) "owner bin touched by both" true
    (List.mem 1 (Ranges.bins_of ~bin_width:w a)
    && List.mem 1 (Ranges.bins_of ~bin_width:w b))

(* --- properties: sweep = oracle, invariance under permutation --- *)

let gen_ivs =
  QCheck.Gen.(
    let interval =
      pair (int_range 0 500) (int_range 0 60) >|= fun (start, len) ->
      (start, len)
    in
    array_size (int_range 0 40) interval >|= fun raw ->
    Array.mapi
      (fun id (start, len) -> Ranges.of_start_len ~id ~start ~len)
      raw)

let arb_sides =
  QCheck.make
    ~print:(fun (xs, ys) ->
      Printf.sprintf "%d x %d intervals" (Array.length xs) (Array.length ys))
    QCheck.Gen.(pair gen_ivs gen_ivs)

let prop_sweep_equals_nested_loop =
  QCheck.Test.make ~name:"sweep_join = sorted nested_loop_join" ~count:300
    arb_sides (fun (xs, ys) ->
      Ranges.sweep_join xs ys = canon (Ranges.nested_loop_join xs ys))

(* The indexed join's running maximum of ends matters only where right
   intervals overlap: starts drawn from a narrow range repeat, and a mix
   of short and long lengths nests them, so a long early interval keeps
   the maximum above short ones that end before a left start. Right ids
   run opposite to input positions, so emitting by id instead of by
   position would show. *)
let gen_dense_ivs ~reverse_ids =
  QCheck.Gen.(
    let interval =
      pair (int_range 0 120) (oneof [ int_range 0 8; int_range 0 200 ])
    in
    array_size (int_range 0 40) interval >|= fun raw ->
    let n = Array.length raw in
    Array.mapi
      (fun i (start, len) ->
        let id = if reverse_ids then n - 1 - i else i in
        Ranges.of_start_len ~id ~start ~len)
      raw)

let arb_indexed =
  let show ivs =
    String.concat " "
      (Array.to_list
         (Array.map
            (fun { Ranges.id; lo; hi } -> Printf.sprintf "%d:[%d,%d)" id lo hi)
            ivs))
  in
  QCheck.make
    ~print:(fun (xs, ys, min_overlap) ->
      Printf.sprintf "min_overlap %d\nleft %s\nright %s" min_overlap (show xs)
        (show ys))
    QCheck.Gen.(
      triple
        (gen_dense_ivs ~reverse_ids:false)
        (gen_dense_ivs ~reverse_ids:true)
        (int_range (-1) 5))

let prop_indexed_equals_nested_loop =
  QCheck.Test.make ~name:"indexed_join = nested_loop_join" ~count:500
    arb_indexed (fun (xs, ys, min_overlap) ->
      Ranges.indexed_join ~min_overlap xs ys
      = Ranges.nested_loop_join ~min_overlap xs ys)

let prop_count_invariant_under_permutation =
  (* Shuffling the arrays (keeping ids) must not change the pair set:
     the sweep's sort makes the output order canonical regardless. *)
  QCheck.Test.make ~name:"pair set invariant under input permutation"
    ~count:200
    (QCheck.pair arb_sides QCheck.(int_bound 1000))
    (fun ((xs, ys), seed) ->
      let shuffled arr =
        let rng = Gb_util.Prng.create (Int64.of_int (seed + 1)) in
        let a = Array.copy arr in
        Gb_util.Prng.shuffle rng a;
        a
      in
      Ranges.sweep_join (shuffled xs) (shuffled ys) = Ranges.sweep_join xs ys)

let prop_bin_ownership_partitions =
  (* Every overlapping pair is owned by exactly one bin, and that bin is
     among the bins both intervals touch — the correctness of the
     shuffle-by-bin physical plans. *)
  QCheck.Test.make ~name:"each pair owned by exactly one touched bin"
    ~count:200 arb_sides (fun (xs, ys) ->
      let w = 64 in
      List.for_all
        (fun (v, g, _) ->
          let a = xs.(v) and b = ys.(g) in
          let shared =
            List.filter
              (fun bin -> List.mem bin (Ranges.bins_of ~bin_width:w b))
              (Ranges.bins_of ~bin_width:w a)
          in
          List.length
            (List.filter
               (fun bin -> Ranges.owns_pair ~bin_width:w ~bin a b)
               shared)
          = 1)
        (Ranges.sweep_join xs ys))

let suite =
  [
    ("make rejects inverted", `Quick, test_make_rejects_inverted);
    ("overlap_len cases", `Quick, test_overlap_len_cases);
    ("overlaps min_overlap", `Quick, test_overlaps_min_overlap);
    ("joins agree on edge cases", `Quick, test_joins_agree_on_edges);
    ("zero-overlap join", `Quick, test_join_zero_pairs);
    ("empty inputs", `Quick, test_join_empty_inputs);
    ("bins", `Quick, test_bins);
    ("pair ownership unique", `Quick, test_owns_pair_unique);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_sweep_equals_nested_loop;
        prop_indexed_equals_nested_loop;
        prop_count_invariant_under_permutation;
        prop_bin_ownership_partitions;
      ]
