(* Benjamini-Hochberg FDR control, the multiple-testing correction the
   RNA-seq extension applies to its enrichment p-values. *)

open Gb_stats

let test_bh_fdr () =
  let adjusted =
    Tests.benjamini_hochberg [ (1, 0.01); (2, 0.02); (3, 0.03); (4, 0.04) ]
  in
  (* q_i = p_i * m / i with monotonic enforcement: all equal 0.04 here. *)
  List.iter
    (fun (_, q) -> Alcotest.(check (float 1e-9)) "uniform case" 0.04 q)
    adjusted;
  let mixed = Tests.benjamini_hochberg [ (1, 0.001); (2, 0.8); (3, 0.02) ] in
  (match mixed with
  | (id1, q1) :: (_, q2) :: (_, q3) :: [] ->
    Alcotest.(check int) "smallest first" 1 id1;
    Alcotest.(check (float 1e-9)) "q1" 0.003 q1;
    Alcotest.(check (float 1e-9)) "q2" 0.03 q2;
    Alcotest.(check (float 1e-9)) "q3" 0.8 q3
  | _ -> Alcotest.fail "shape");
  Alcotest.(check (list (pair int (float 0.)))) "empty" []
    (Tests.benjamini_hochberg [])

let prop_bh_q_at_least_p =
  QCheck.Test.make ~name:"BH q >= p and <= 1" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (float_range 1e-6 1.))
    (fun ps ->
      let results = List.mapi (fun i p -> (i, p)) ps in
      let adjusted = Tests.benjamini_hochberg results in
      List.for_all
        (fun (id, q) ->
          let p = List.assoc id results in
          q >= p -. 1e-12 && q <= 1. +. 1e-12)
        adjusted)

let suite =
  [
    ("benjamini-hochberg", `Quick, test_bh_fdr);
    QCheck_alcotest.to_alcotest prop_bh_q_at_least_p;
  ]
