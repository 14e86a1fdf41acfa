(* End-to-end served-query benchmark.

     e2e.exe run --workload NAME --seed N [--seconds S] [--trace 0|1]
     e2e.exe compare DIR_A DIR_B [--benchmark FILE]

   [run] prints "workload metric value unit" for every metric, then one
   JSON result line, and writes e2e-<workload>-<seed>.json (Bench_json
   v1). With --trace 1 it also replays every request type layer by
   layer, writes e2e-<workload>-<seed>.trace.json (Chrome trace) and
   .layers.json, and its result line carries the per-layer metrics. It
   exits 1 when an answer fails the conformance oracle. *)

let usage () =
  prerr_endline
    "usage: e2e.exe run --workload NAME --seed N [--seconds S] [--trace 0|1]\n\
    \       e2e.exe compare DIR_A DIR_B [--benchmark FILE]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all));
  exit 2

(* "--key value" pairs after the subcommand; positional words are kept
   in order. *)
let parse_args args =
  let flag s = String.length s > 2 && String.starts_with ~prefix:"--" s in
  let rec go flags pos = function
    | key :: v :: rest when flag key ->
      go ((String.sub key 2 (String.length key - 2), v) :: flags) pos rest
    | [ key ] when flag key -> usage ()
    | p :: rest -> go flags (p :: pos) rest
    | [] -> (flags, List.rev pos)
  in
  go [] [] args

let int_flag flags key ~default =
  match List.assoc_opt key flags with
  | None -> ( match default with Some d -> d | None -> usage ())
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())

let run flags =
  let w =
    match Option.bind (List.assoc_opt "workload" flags) Workload.find with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int_flag flags "seed" ~default:None in
  let seconds = int_flag flags "seconds" ~default:(Some 20) in
  let traced =
    match int_flag flags "trace" ~default:(Some 0) with 0 -> false | 1 -> true | _ -> usage ()
  in
  if seconds < 1 then usage ();
  let run = Workload.run w ~seed ~seconds:(float_of_int seconds) in
  (* the replay runs while the heap is still close to the one the served
     requests ran against *)
  let replay = if traced then Some (Replay.run run) else None in
  Gb_serve.Live.shutdown run.Workload.live;
  let problems = ref run.Workload.problems in
  let values =
    match replay with
    | None -> Report.end_to_end run
    | Some rp ->
      let trace = Replay.chrome rp in
      (match Gb_obs.Trace_export.validate_chrome trace with
      | Ok _ -> Report.write_file (Report.file_stem run ^ ".trace.json") trace
      | Error e -> problems := !problems @ [ "trace export: " ^ e ]);
      Report.end_to_end run @ Report.serve_metrics run
      @ Report.engine_metrics run @ Report.layer_metrics run rp
  in
  let printed, result =
    if traced then (Metrics.end_to_end @ Metrics.per_layer, Metrics.per_layer)
    else (Metrics.end_to_end, Metrics.end_to_end)
  in
  List.iter print_endline (Metrics.text_lines ~workload:w.Workload.name printed values);
  Report.write_bench run ~traced printed values;
  List.iter (fun p -> prerr_endline ("e2e: " ^ p)) !problems;
  let attempted = Report.attempted run in
  print_endline
    (Metrics.result_line ~correct:(!problems = []) ~attempted
       ~failed:(attempted - Report.good_count run)
       result values);
  if !problems <> [] then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args ->
    let flags, pos = parse_args args in
    if pos <> [] then usage ();
    run flags
  | _ :: "compare" :: args -> (
    let flags, pos = parse_args args in
    let benchmark = Option.value (List.assoc_opt "benchmark" flags) ~default:"BENCHMARK.json" in
    match pos with
    | [ a; b ] -> (
      match Compare.run ~benchmark a b with
      | Ok verdicts ->
        if List.exists (fun v -> v <> Compare.Within_bound) verdicts then exit 1
      | Error e ->
        prerr_endline e;
        exit 2)
    | _ -> usage ())
  | _ -> usage ()
