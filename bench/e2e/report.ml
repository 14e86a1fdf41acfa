(* Metric values from a run (and its replay), the host stamp, and the
   output files. *)

module Outcome = Gb_serve.Outcome
module Engine = Genbase.Engine
module Obs = Gb_obs.Obs
module Bench_json = Gb_obs.Bench_json
open Workload

let sum = List.fold_left ( +. ) 0.
let frac num den = if den = 0 then 0. else float_of_int num /. float_of_int den
let median_or_zero = function [] -> 0. | xs -> Stats.median xs

(* --- end to end --- *)

(* Good operations: served answers that passed the oracle; for the
   stream workload, batches whose read (if any) was one. *)
let good_count (run : run) =
  match run.workload.shape with
  | Stream ->
    List.length
      (List.filter
         (fun b -> match b.read with None -> true | Some r -> r.correct)
         run.batches)
  | Closed | Open _ -> List.length (List.filter (fun r -> r.correct) run.requests)

let attempted (run : run) =
  match run.workload.shape with
  | Stream -> List.length run.batches
  | Closed | Open _ -> List.length run.requests

let latency_samples (run : run) =
  match run.workload.shape with
  | Stream -> List.map (fun b -> (b.kind, b.batch_s)) run.batches
  | Closed | Open _ ->
    List.filter_map
      (fun r -> if r.correct then Some (type_key r.engine r.query, latency r) else None)
      run.requests

let end_to_end (run : run) =
  [
    ("setup_s", Stats.median run.setup_s);
    ("goodput_per_s", float_of_int (good_count run) /. run.timed_s);
    ("latency_geomean_s", Stats.geomean_of_type_medians (latency_samples run));
    ("peak_rss_mb", run.peak_rss_mb);
  ]

(* --- per layer --- *)

let served (run : run) =
  List.filter
    (fun r ->
      match r.resp.Outcome.disposition with Outcome.Served _ -> true | _ -> false)
    run.requests

let tail = function [] -> 0. | xs -> Stats.tail xs

let serve_metrics (run : run) =
  let served = served run in
  let n = List.length run.requests in
  let count p = List.length (List.filter (fun r -> p r.resp.Outcome.disposition) run.requests) in
  let waits = List.map (fun r -> r.resp.Outcome.queue_wait_s) served in
  let lat = List.filter_map (fun r -> if r.correct then Some (latency r) else None) run.requests in
  let late = List.map (fun r -> r.sent_s -. r.due_s) run.requests in
  [
    ("serve.queue_wait_p50_s", median_or_zero waits);
    ("serve.queue_wait_tail_s", tail waits);
    ("serve.exec_p50_s", median_or_zero (List.map (fun r -> r.resp.Outcome.exec_s) served));
    ("serve.latency_p50_s", median_or_zero lat);
    ("serve.latency_tail_s", tail lat);
    ("serve.shed_frac", frac (count (function Outcome.Shed _ -> true | _ -> false)) n);
    ( "serve.deadline_frac",
      frac (count (function Outcome.Deadline_exceeded _ -> true | _ -> false)) n );
    ("loadgen.late_tail_s", tail late);
  ]

let engine_metrics (run : run) =
  let timed =
    List.filter_map
      (fun r -> Option.map (fun t -> (t, r.resp.Outcome.exec_s)) r.timing)
      run.requests
  in
  let exec = sum (List.map snd timed) in
  let share f = if exec = 0. then 0. else sum (List.map (fun (t, _) -> f t) timed) /. exec in
  let dm = share (fun t -> t.Engine.dm) and an = share (fun t -> t.Engine.analytics) in
  [
    ("engine.dm_share", dm);
    ("engine.analytics_share", an);
    ("engine.unattributed_share", if exec = 0. then 0. else 1. -. dm -. an);
  ]

(* Replay spans grouped by the request type and pass that parented
   them: (type key, pass, layer, seconds). *)
let by_type (rp : Replay.t) =
  let parents = Hashtbl.create 64 in
  List.iter
    (fun (s : Obs.span) ->
      if s.Obs.cat = "request" then
        match List.assoc_opt "pass" s.Obs.attrs with
        | Some (Obs.Int pass) -> Hashtbl.replace parents s.Obs.id (s.Obs.name, pass)
        | _ -> ())
    rp.Replay.spans;
  List.filter_map
    (fun (s : Obs.span) ->
      match Hashtbl.find_opt parents s.Obs.parent with
      | Some (key, pass) -> Some (key, pass, s.Obs.cat, s.Obs.dur)
      | None -> None)
    rp.Replay.spans

(* One type's time in one layer: summed within a pass, median over the
   passes. *)
let type_layer_s rows key cat =
  let per_pass =
    List.init Replay.passes (fun i ->
        sum
          (List.filter_map
             (fun (k, p, c, d) -> if k = key && p = i + 1 && c = cat then Some d else None)
             rows))
  in
  Stats.median per_pass

let named_s (rp : Replay.t) name =
  List.filter_map
    (fun (s : Obs.span) -> if s.Obs.name = name then Some s.Obs.dur else None)
    rp.Replay.spans

let layer_metrics (run : run) (rp : Replay.t) =
  let rows = by_type rp in
  let engines = run.workload.engines in
  let has e = List.memq e engines in
  let qkey i = List.nth Metrics.queries i in
  let per_query f = List.mapi (fun i q -> f (qkey i) q) Genbase.Query.all in
  (* one engine's layer time for one query, 0 when the workload does
     not run that engine *)
  let layer e cat q = if has e then type_layer_s rows (type_key e q) cat else 0. in
  (* 0 too for an engine without a store (Vanilla R) *)
  let store e = Stats.median (List.map (fun q -> layer e "store" q) Genbase.Query.all) in
  (* store builds each request paid: its unattributed execution time
     (outside the engine's own dm + analytics clock) in units of the
     replayed build of that engine's store *)
  let builds =
    let per =
      List.filter_map
        (fun r ->
          match r.timing with
          | Some t ->
            let b = store r.engine in
            Some
              (if b = 0. then 0.
               else (r.resp.Outcome.exec_s -. t.Engine.dm -. t.Engine.analytics) /. b)
          | None -> None)
        run.requests
    in
    match per with [] -> 0. | _ -> sum per /. float_of_int (List.length per)
  in
  (* median of the spans of that name; 0 when the replay has none *)
  let span_p50 name = median_or_zero (named_s rp name) in
  (* coverage: replayed layer time over the untraced median execution
     time, summed over the workload's request types *)
  let coverage =
    let layers key = sum (List.map (fun c -> type_layer_s rows key c)
                            [ "store"; "dm"; "boundary"; "analytics" ]) in
    let pairs =
      match run.workload.shape with
      | Stream ->
        let plain =
          span_p50 "stream.step"
          +. sum (List.map (fun q -> span_p50 ("stream.refresh." ^ Genbase.Query.name q))
                    Genbase.Query.all)
        in
        let kinds = List.sort_uniq compare (List.map (fun b -> b.kind) run.batches) in
        List.map
          (fun kind ->
            let measured =
              Stats.median
                (List.filter_map
                   (fun b -> if b.kind = kind then Some b.batch_s else None)
                   run.batches)
            in
            let replayed =
              if kind = "plain" then plain
              else
                let q = String.sub kind 5 (String.length kind - 5) in
                plain +. span_p50 "stream.snapshot" +. layers (colstore_udf.Engine.name ^ "/" ^ q)
            in
            (replayed, measured))
          kinds
      | Closed | Open _ ->
        List.filter_map
          (fun (e, q) ->
            let key = type_key e q in
            match
              List.filter_map
                (fun r ->
                  if type_key r.engine r.query = key && r.correct then Some r.resp.Outcome.exec_s
                  else None)
                run.requests
            with
            | [] -> None
            | xs -> Some (layers key, Stats.median xs))
          (types run.workload)
    in
    sum (List.map fst pairs) /. sum (List.map snd pairs)
  in
  let st = run.stream in
  [
    ("store.row_build_s", store postgres_r);
    ("store.col_build_s", store colstore_udf);
    ("store.array_build_s", store scidb);
    ("store.builds_per_request", builds);
  ]
  @ per_query (fun k q -> ("dm.row." ^ k ^ "_s", layer postgres_r "dm" q))
  @ per_query (fun k q -> ("dm.col." ^ k ^ "_s", layer colstore_udf "dm" q))
  @ [
      ( "boundary.roundtrip_s",
        sum (List.map (fun (e, q) -> type_layer_s rows (type_key e q) "boundary") (types run.workload)) );
    ]
  @ per_query (fun k q ->
        ( "analytics." ^ k ^ "_s",
          Stats.median (List.map (fun e -> layer e "analytics" q) engines) ))
  @ [
      ("kernel.linreg_fit_s", span_p50 "kernel.linreg_fit");
      ("kernel.linreg_fit_flop", rp.Replay.kernels.Replay.linreg_flop);
      ("kernel.covariance_matrix_s", span_p50 "kernel.covariance_matrix");
      ("kernel.covariance_matrix_flop", rp.Replay.kernels.Replay.cov_flop);
      ("kernel.covariance_matrix_bytes", rp.Replay.kernels.Replay.cov_bytes);
      ("kernel.cov_top_fraction_s", span_p50 "kernel.cov_top_fraction");
      ("kernel.cheng_church_s", span_p50 "kernel.cheng_church");
      ("kernel.svd_top_k_s", span_p50 "kernel.svd_top_k");
      ("kernel.wilcoxon_enrichment_s", span_p50 "kernel.wilcoxon_enrichment");
      ("kernel.overlap_sweep_s", span_p50 "kernel.overlap_sweep");
      ("stream.step_p50_s", span_p50 "stream.step");
    ]
  @ per_query (fun k q ->
        ("stream.refresh." ^ k ^ "_p50_s", span_p50 ("stream.refresh." ^ Genbase.Query.name q)))
  @ [
      ("stream.snapshot_s", span_p50 "stream.snapshot");
      ( "stream.fallback_recomputes",
        match st with Some s -> float_of_int s.recomputes | None -> 0. );
      ( "stream.staleness_max_rows",
        match st with Some s -> float_of_int s.staleness_max | None -> 0. );
      ("trace.coverage", coverage);
    ]

(* --- host and configuration stamp --- *)

let nproc () =
  (* CPUs this process may run on, as nproc(1) counts them *)
  match Workload.proc_status "Cpus_allowed_list:" with
  | None -> 0
  | Some list ->
    List.fold_left
      (fun acc part ->
        match String.split_on_char '-' (String.trim part) with
        | [ _ ] -> acc + 1
        | [ a; b ] -> acc + (int_of_string b - int_of_string a + 1)
        | _ -> acc)
      0
      (String.split_on_char ',' list)

let stamp (run : run) =
  [
    ("nproc", float_of_int (nproc ()));
    ("recommended_domains", float_of_int (Domain.recommended_domain_count ()));
    ("pool_jobs", float_of_int (Gb_par.Pool.jobs ()));
    ("live_lanes", float_of_int (live_config ()).Gb_serve.Live.lanes);
    ("live_queue_depth", float_of_int (live_config ()).Gb_serve.Live.queue_depth);
    ("seed", float_of_int run.seed);
  ]

(* One record per metric (Bench_json v1, so `genbase bench-diff` reads
   the file), plus a host record carrying the stamp; the OCaml version
   rides in its engine field and the git revision in the file header. *)
let records (run : run) catalog values =
  let size = Gb_datagen.Spec.label run.workload.size in
  let record ?engine ?counters ~name ~unit_ ~better v =
    match Bench_json.make ~name ?engine ~size ~unit_ ~better ?counters [ v ] with
    | Some r -> r
    | None -> failwith ("e2e: non-finite value for " ^ name)
  in
  record ~name:"host" ~engine:("ocaml " ^ Sys.ocaml_version) ~counters:(stamp run)
    ~unit_:"count" ~better:Bench_json.Higher
    (float_of_int (nproc ()))
  :: List.map
       (fun (x : Metrics.metric) ->
         record ~name:x.Metrics.name ~unit_:x.Metrics.unit_ ~better:x.Metrics.better
           (Metrics.lookup values x.Metrics.name))
       catalog

let file_stem (run : run) = Printf.sprintf "e2e-%s-%d" run.workload.name run.seed

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* Sections "e2e-<workload>" (untraced) and "e2e-<workload>-layers"
   (traced), so [compare] and bench-diff never mix the two. *)
let write_bench (run : run) ~traced catalog values =
  write_file
    (file_stem run ^ if traced then ".layers.json" else ".json")
    (Bench_json.to_string
       {
         Bench_json.section = ("e2e-" ^ run.workload.name ^ if traced then "-layers" else "");
         git_rev = Bench_json.git_rev ();
         quick = false;
         records = records run catalog values;
       })
