(* Cross-engine scaling behaviors the paper reports, asserted as
   inequalities (robust to machine speed). *)

open Genbase
module Spec = Gb_datagen.Spec

let large = lazy (Dataset.of_size Spec.Large)
let medium = lazy (Dataset.of_size Spec.Medium)

let total e ds q =
  match Engine.run e ds q ~timeout_s:300. () with
  | Engine.Completed (t, _) -> Engine.total t
  | o ->
    Alcotest.failf "%s failed: %s" e.Engine.name
      (Format.asprintf "%a" Engine.pp_outcome o)

let analytics e ds q =
  match Engine.run e ds q ~timeout_s:300. () with
  | Engine.Completed (t, _) -> t.Engine.analytics
  | _ -> Alcotest.fail "run failed"

let test_scidb_two_node_regression_penalty () =
  (* "SciDB often has worse performance on two nodes than on one" — the
     chunk redistribution penalty. Both sides are measured wall time plus
     a modelled penalty, so each keeps its best of 3 runs (the harness's
     rule) to keep machine load out of the comparison. *)
  let ds = Lazy.force large in
  let best nodes =
    List.fold_left Float.min infinity
      (List.init 3 (fun _ ->
           total (Engine_multinode.scidb ~nodes ()) ds Query.Q1_regression))
  in
  let one = best 1 in
  let two = best 2 in
  Alcotest.(check bool) "2 nodes slower than 1" (two > one) true

let test_pbdr_scales () =
  let ds = Lazy.force large in
  let one = total (Engine_multinode.pbdr ~nodes:1 ()) ds Query.Q1_regression in
  let four = total (Engine_multinode.pbdr ~nodes:4 ()) ds Query.Q1_regression in
  Alcotest.(check bool) "speedup" (four < one) true;
  Alcotest.(check bool) "sub-linear-ish sane" (four > one /. 16.) true

let test_hadoop_multinode_faster () =
  let ds = Lazy.force medium in
  let one = total (Engine_hadoop.engine_multinode ~nodes:1 ()) ds Query.Q2_covariance in
  let four = total (Engine_hadoop.engine_multinode ~nodes:4 ()) ds Query.Q2_covariance in
  Alcotest.(check bool) "multi-node helps" (four < one) true;
  (* Job overhead does not parallelize, so far from 4x. *)
  Alcotest.(check bool) "not linear" (four > one /. 4.) true

let test_phi_speedup_on_covariance () =
  let ds = Lazy.force large in
  let host = analytics Engine_scidb.engine ds Query.Q2_covariance in
  let phi = analytics Engine_phi.engine ds Query.Q2_covariance in
  let speedup = host /. phi in
  Alcotest.(check bool)
    (Printf.sprintf "speedup %.2f in band" speedup)
    (speedup > 1.3 && speedup < 4.5)
    true

let test_phi_no_gain_on_biclustering () =
  let ds = Lazy.force large in
  let host = analytics Engine_scidb.engine ds Query.Q3_biclustering in
  let phi = analytics Engine_phi.engine ds Query.Q3_biclustering in
  let speedup = host /. phi in
  Alcotest.(check bool)
    (Printf.sprintf "speedup %.2f modest" speedup)
    (speedup < 1.8)
    true

let test_analytics_fraction_grows () =
  (* "as the problem size gets larger, the fraction of time spent on
     analytics increases" — checked on the SciDB engine, covariance. *)
  let frac ds =
    match Engine.run Engine_scidb.engine ds Query.Q2_covariance ~timeout_s:300. () with
    | Engine.Completed (t, _) ->
      t.Engine.analytics /. Float.max 1e-9 (Engine.total t)
    | _ -> Alcotest.fail "run failed"
  in
  let small = frac (Dataset.of_size Spec.Small) in
  let big = frac (Lazy.force large) in
  Alcotest.(check bool)
    (Printf.sprintf "fraction grows (%.2f -> %.2f)" small big)
    (big >= small || big > 0.9)
    true

let suite =
  [
    ("scidb 2-node penalty", `Slow, test_scidb_two_node_regression_penalty);
    ("pbdr scales", `Slow, test_pbdr_scales);
    ("hadoop multi-node", `Slow, test_hadoop_multinode_faster);
    ("phi covariance speedup", `Slow, test_phi_speedup_on_covariance);
    ("phi biclustering flat", `Slow, test_phi_no_gain_on_biclustering);
    ("analytics fraction grows", `Slow, test_analytics_fraction_grows);
  ]
