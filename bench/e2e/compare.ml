(* [e2e.exe compare A/ B/]: two directories of repeated untraced run
   files, judged per (workload, end-to-end metric) against the bounds in
   BENCHMARK.json. *)

module Json = Gb_obs.Json
module Bench_json = Gb_obs.Bench_json

type bound = { better : Metrics.better; bound : float }

let ( let* ) = Result.bind

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Metric name -> direction and bound, from BENCHMARK.json's
   end_to_end list. *)
let bounds_of_string s =
  let* doc = Json.parse s in
  let* metrics =
    Option.to_result ~none:"BENCHMARK.json: no end_to_end list"
      (Option.bind (Json.member "end_to_end" doc) Json.to_arr)
  in
  List.fold_left
    (fun acc m ->
      let* acc = acc in
      let str k = Option.bind (Json.member k m) Json.to_str in
      match (str "name", str "better", Option.bind (Json.member "bound" m) Json.to_num) with
      | Some name, Some better, Some bound ->
        let* better =
          match better with
          | "lower" -> Ok Metrics.Lower
          | "higher" -> Ok Metrics.Higher
          | b -> Error ("BENCHMARK.json: bad direction " ^ b)
        in
        Ok ((name, { better; bound }) :: acc)
      | _ -> Error "BENCHMARK.json: end_to_end entry lacks name, better or bound")
    (Ok []) metrics
  |> Result.map List.rev

(* Every untraced run file in [dir]: (workload, [(metric, value)]). *)
let runs_in dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         if not (Filename.check_suffix f ".json") then None
         else
           match Bench_json.read (Filename.concat dir f) with
           | Ok { Bench_json.section; records; _ }
             when String.starts_with ~prefix:"e2e-" section
                  && not (String.ends_with ~suffix:"-layers" section) ->
             Some
               ( String.sub section 4 (String.length section - 4),
                 List.map (fun r -> (r.Bench_json.name, r.Bench_json.median)) records )
           | _ -> None)

type verdict = Regressed | Improved | Within_bound | Unresolved

let verdict_label = function
  | Regressed -> "regressed"
  | Improved -> "improved"
  | Within_bound -> "within bound"
  | Unresolved -> "unresolved"

let spread xs =
  let q1, med, q3 = Stats.quartiles xs in
  (q3 -. q1) /. Float.abs med

(* [a] is the base side, [b] the candidate. A spread wider than the
   bound leaves the metric unresolved unless every candidate run beats
   every base run. *)
let verdict { better; bound } a b =
  if List.length a < 2 || List.length b < 2 then Unresolved
  else begin
    let beats x y = match better with Metrics.Lower -> x < y | Metrics.Higher -> x > y in
    let all_better = List.for_all (fun y -> List.for_all (fun x -> beats y x) a) b in
    let ma = Stats.median a and mb = Stats.median b in
    let worse = (match better with Metrics.Lower -> mb -. ma | Metrics.Higher -> ma -. mb) /. Float.abs ma in
    if spread a > bound || spread b > bound then (if all_better then Improved else Unresolved)
    else if worse > bound then Regressed
    else if worse < -.bound then Improved
    else Within_bound
  end

let run ~benchmark dir_a dir_b =
  let* bounds = bounds_of_string (read_file benchmark) in
  let a = runs_in dir_a and b = runs_in dir_b in
  let workloads = List.sort_uniq compare (List.map fst (a @ b)) in
  if workloads = [] then Error "compare: no e2e run files in either directory"
  else begin
    let values runs w name =
      List.filter_map (fun (w', ms) -> if w' = w then List.assoc_opt name ms else None) runs
    in
    let quart xs =
      if List.length xs < 2 then "n/a"
      else
        let q1, med, q3 = Stats.quartiles xs in
        Printf.sprintf "%.4g [%.4g, %.4g] n=%d" med q1 q3 (List.length xs)
    in
    Printf.printf "%-14s %-18s %-36s %-36s %7s %s\n" "workload" "metric"
      "A median [q1, q3]" "B median [q1, q3]" "bound" "verdict";
    let verdicts =
      List.concat_map
        (fun w ->
          List.map
            (fun (name, bd) ->
              let va = values a w name and vb = values b w name in
              let v = verdict bd va vb in
              Printf.printf "%-14s %-18s %-36s %-36s %6.0f%% %s\n" w name (quart va) (quart vb)
                (100. *. bd.bound) (verdict_label v);
              v)
            bounds)
        workloads
    in
    Ok verdicts
  end
