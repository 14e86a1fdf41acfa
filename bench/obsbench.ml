(* Microbenchmarks of the observability hooks themselves: the disabled
   hooks must compile to near-nothing (a load and a branch), and the
   enabled per-row tracing cost bounds the harness's <5% overhead
   contract. Reported as ns/run alongside an end-to-end enabled-vs-
   disabled comparison of a full Q1 cell. *)

open Bechamel
open Toolkit
module Obs = Gb_obs.Obs
module Telemetry = Gb_obs.Telemetry

let c = Telemetry.counter ~help:"op" "bench_obs_ops"

let scan_rel () =
  let ds =
    Gb_datagen.Generate.generate ~seed:0xBE7CL
      (Gb_datagen.Spec.custom ~genes:100 ~patients:100)
  in
  let db = Genbase.Dataset.load_col_stores ds in
  fun () ->
    Gb_relational.Ops.scan_col_store db.Genbase.Dataset.microarray_c []

let tests ~enabled =
  Obs.set_enabled enabled;
  Telemetry.set_enabled enabled;
  let scan = scan_rel () in
  let tag = if enabled then "on" else "off" in
  [
    Test.make
      ~name:(Printf.sprintf "span with_ (%s)" tag)
      (Staged.stage (fun () ->
           Obs.Span.with_ ~name:"bench" (fun () -> Sys.opaque_identity 42)));
    Test.make
      ~name:(Printf.sprintf "counter add (%s)" tag)
      (Staged.stage (fun () -> Telemetry.add c 1));
    Test.make
      ~name:(Printf.sprintf "traced scan 10k rows (%s)" tag)
      (Staged.stage (fun () ->
           Obs.reset ();
           ignore
             (Gb_relational.Ops.count
                (Gb_relational.Ops.traced ~name:"bench" (scan ())))));
  ]

let estimate test =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let name = Test.Elt.name (List.hd (Test.elements test)) in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let analyzed = Analyze.all ols Instance.monotonic_clock raw in
  let est =
    Hashtbl.fold
      (fun _ v acc ->
        match Analyze.OLS.estimates v with Some (t :: _) -> Some t | _ -> acc)
      analyzed None
  in
  (name, est)

let run () =
  let results =
    List.map estimate (tests ~enabled:false)
    @ List.map estimate (tests ~enabled:true)
  in
  Obs.set_enabled false;
  Telemetry.set_enabled false;
  let rows =
    List.map
      (fun (name, est) ->
        [
          name;
          (match est with
          | Some ns when ns >= 1e6 -> Printf.sprintf "%.2f ms" (ns /. 1e6)
          | Some ns when ns >= 1e3 -> Printf.sprintf "%.2f us" (ns /. 1e3)
          | Some ns -> Printf.sprintf "%.1f ns" ns
          | None -> "n/a");
        ])
      results
  in
  print_endline (Gb_util.Render.table ~headers:[ "hook"; "time/run" ] ~rows);
  let overhead =
    let ds =
      Gb_datagen.Generate.generate ~seed:0x6E0BA5EL
        (Gb_datagen.Spec.of_size Gb_datagen.Spec.Small)
    in
    (Genbase.Harness.tracing_overhead Genbase.Engine_sql.colstore_udf ds
       Genbase.Query.Q1_regression ~timeout_s:60.)
      .Genbase.Harness.median_pct
  in
  Printf.printf
    "Q1 small (colstore-udf), median of 5 interleaved best-of-6 rounds: \
     overhead %+.2f%%\n"
    overhead;
  List.filter_map
    (fun (name, est) ->
      Option.bind est (fun ns ->
          Gb_obs.Bench_json.make ~name ~unit_:"ns" [ ns ]))
    results
  @ Option.to_list
      (Gb_obs.Bench_json.make ~name:"cell overhead (Q1 small)" ~unit_:"pct"
         [ overhead ])
