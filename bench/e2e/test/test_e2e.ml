(* The benchmark's pure helpers, and its catalog against BENCHMARK.json. *)

module Json = Gb_obs.Json

let feq = Alcotest.float 1e-12

let geomean () =
  (* medians 2 (type a) and 8 (type b): sqrt (2 * 8) *)
  let samples = [ ("a", 1.); ("b", 8.); ("a", 30.); ("a", 2.) ] in
  Alcotest.check feq "geomean of medians" 4. (Stats.geomean_of_type_medians samples);
  Alcotest.check feq "order does not matter" 4.
    (Stats.geomean_of_type_medians (List.rev samples));
  (* a type seen many times weighs the same as one seen once *)
  let many = List.init 50 (fun _ -> ("fast", 1.)) @ [ ("slow", 100.) ] in
  Alcotest.check feq "one vote per type" 10. (Stats.geomean_of_type_medians many)

let percentile_rule () =
  let xs n = List.init n float_of_int in
  Alcotest.(check bool) "p90 refused at 99" true (Stats.percentile (xs 99) 0.9 = None);
  Alcotest.(check bool) "p90 given at 100" true (Stats.percentile (xs 100) 0.9 <> None);
  Alcotest.(check bool) "p50 refused at 19" true (Stats.percentile (xs 19) 0.5 = None);
  Alcotest.(check bool) "p99 given at 1000" true (Stats.percentile (xs 1000) 0.99 <> None);
  Alcotest.(check (float 1e-9)) "interpolated" 89.1
    (Option.get (Stats.percentile (xs 100) 0.9));
  let at n q = Stats.quantile_sorted (Stats.sorted (xs n)) q in
  Alcotest.check feq "tail of 999 is p90" (at 999 0.9) (Stats.tail (xs 999));
  Alcotest.check feq "tail of 1000 is p99" (at 1000 0.99) (Stats.tail (xs 1000));
  Alcotest.check feq "tail of 50 is the median" (at 50 0.5) (Stats.tail (xs 50))

let quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check feq "q1" 2.75 q1;
  Alcotest.check feq "q2" 5.5 q2;
  Alcotest.check feq "q3" 8.25 q3;
  (* statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] *)
  let q1, _, q3 = Stats.quartiles [ 2.; 1. ] in
  Alcotest.check feq "two samples q1" 0.75 q1;
  Alcotest.check feq "two samples q3" 2.25 q3

let schedule () =
  let draw seed =
    let s = Schedule.streams seed in
    ( Schedule.dataset_seeds s 3,
      Schedule.poisson s.Schedule.arrivals ~rate:12. ~seconds:15.,
      Schedule.rounds s.Schedule.order [ 1; 2; 3; 4; 5 ] 4 )
  in
  let ds1, due1, order1 = draw 7 and ds2, due2, order2 = draw 7 in
  Alcotest.(check bool) "same dataset seeds" true (ds1 = ds2);
  Alcotest.(check bool) "repeat set-ups regenerate them" true
    (ds1 = Schedule.dataset_seeds (Schedule.streams 7) 3);
  Alcotest.(check int) "distinct datasets" 3 (List.length (List.sort_uniq compare ds1));
  Alcotest.(check (array (float 0.))) "same arrivals" due1 due2;
  Alcotest.(check (list int)) "same order" order1 order2;
  let ds3, due3, order3 = draw 8 in
  Alcotest.(check bool) "another seed differs" true
    (ds1 <> ds3 && due1 <> due3 && order1 <> order3);
  Alcotest.(check int) "count fixed by rate and length" 180 (Array.length due1);
  Alcotest.(check bool) "sorted, inside the interval" true
    (Array.for_all (fun d -> d >= 0. && d < 15.) due1
    && Array.to_list due1 = List.sort compare (Array.to_list due1));
  List.iteri
    (fun i chunk ->
      Alcotest.(check (list int))
        (Printf.sprintf "round %d holds every type once" i)
        [ 1; 2; 3; 4; 5 ] (List.sort compare chunk))
    (List.init 4 (fun r -> List.filteri (fun i _ -> i / 5 = r) order1))

let due_latency () =
  Alcotest.check feq "a late client adds its delay" 0.75
    (Schedule.due_latency ~due:1.0 ~sent:1.25 ~served_s:0.5);
  Alcotest.check feq "on time" 0.5 (Schedule.due_latency ~due:2. ~sent:2. ~served_s:0.5)

(* --- BENCHMARK.json --- *)

let benchmark_json =
  let ic = open_in_bin "../../../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let entries key =
  match Json.parse benchmark_json with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    List.map
      (fun m ->
        let str k = Option.get (Option.bind (Json.member k m) Json.to_str) in
        (str "name", str "unit", str "better"))
      (Option.get (Option.bind (Json.member key doc) Json.to_arr))

let valid_name n =
  n <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       n

let as_entries catalog =
  List.map
    (fun (x : Metrics.metric) ->
      ( x.Metrics.name,
        x.Metrics.unit_,
        match x.Metrics.better with Metrics.Lower -> "lower" | Metrics.Higher -> "higher" ))
    catalog

let catalog_matches () =
  let check key catalog =
    let listed = entries key in
    List.iter
      (fun (n, _, _) -> Alcotest.(check bool) ("name charset: " ^ n) true (valid_name n))
      listed;
    Alcotest.(check (list (triple string string string))) key (as_entries catalog) listed
  in
  check "end_to_end" Metrics.end_to_end;
  check "per_layer" Metrics.per_layer

(* Every listed name is printed, in the text lines and the result line. *)
let printed () =
  let catalog = Metrics.end_to_end @ Metrics.per_layer in
  let values =
    List.mapi (fun i (x : Metrics.metric) -> (x.Metrics.name, float_of_int i +. 0.5)) catalog
  in
  let lines = Metrics.text_lines ~workload:"w" catalog values in
  List.iter2
    (fun (x : Metrics.metric) line ->
      Alcotest.(check bool) ("printed: " ^ x.Metrics.name) true
        (String.starts_with ~prefix:("w " ^ x.Metrics.name ^ " ") line))
    catalog lines;
  match Json.parse (Metrics.result_line ~correct:true ~attempted:3 ~failed:0 catalog values) with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    (match doc with
    | Json.Obj fields ->
      Alcotest.(check (list string)) "result keys" [ "correct"; "attempted"; "failed"; "metrics" ]
        (List.map fst fields)
    | _ -> Alcotest.fail "result is not an object");
    let metrics = Option.get (Json.member "metrics" doc) in
    List.iter
      (fun (n, v) ->
        let value = Option.bind (Json.member n metrics) (Json.member "value") in
        Alcotest.check feq n v (Option.get (Option.bind value Json.to_num)))
      values

let compare_verdicts () =
  let bounds =
    match Compare.bounds_of_string benchmark_json with Ok b -> b | Error e -> Alcotest.fail e
  in
  let latency = List.assoc "latency_geomean_s" bounds in
  let goodput = List.assoc "goodput_per_s" bounds in
  let base = [ 1.00; 1.01; 0.99; 1.00; 1.02 ] in
  let scaled k = List.map (fun x -> x *. k) base in
  let v = Alcotest.of_pp (fun f v -> Format.pp_print_string f (Compare.verdict_label v)) in
  Alcotest.check v "same" Compare.Within_bound (Compare.verdict latency base base);
  Alcotest.check v "slower" Compare.Regressed (Compare.verdict latency base (scaled 1.5));
  Alcotest.check v "faster" Compare.Improved (Compare.verdict latency base (scaled 0.5));
  Alcotest.check v "less goodput" Compare.Regressed (Compare.verdict goodput base (scaled 0.5));
  Alcotest.check v "too noisy" Compare.Unresolved
    (Compare.verdict latency base [ 0.5; 1.5; 0.6; 1.4; 1.0 ])

let () =
  Alcotest.run "e2e"
    [
      ( "stats",
        [
          Alcotest.test_case "geomean of type medians" `Quick geomean;
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "quartiles as python" `Quick quartiles;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "seeded schedule and order" `Quick schedule;
          Alcotest.test_case "due-time latency" `Quick due_latency;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "BENCHMARK.json names" `Quick catalog_matches;
          Alcotest.test_case "every metric printed" `Quick printed;
          Alcotest.test_case "compare verdicts" `Quick compare_verdicts;
        ] );
    ]
