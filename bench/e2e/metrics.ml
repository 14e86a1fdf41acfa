(* The metric catalog: every name the benchmark prints, with its unit
   and direction. BENCHMARK.json lists the same names (a unit test holds
   the two together); the renderer walks this catalog, so a metric
   without a value is an error rather than a silently missing line. *)

type better = Gb_obs.Bench_json.better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "goodput_per_s" "1/s" Higher;
    m "latency_geomean_s" "s" Lower;
    m "peak_rss_mb" "MB" Lower;
  ]

let queries = [ "q1"; "q2"; "q3"; "q4"; "q5"; "q6" ]
let per_query f = List.map f queries

let per_layer =
  [
    m "serve.queue_wait_p50_s" "s" Lower;
    m "serve.queue_wait_tail_s" "s" Lower;
    m "serve.exec_p50_s" "s" Lower;
    m "serve.latency_p50_s" "s" Lower;
    m "serve.latency_tail_s" "s" Lower;
    m "serve.shed_frac" "ratio" Lower;
    m "serve.deadline_frac" "ratio" Lower;
    m "loadgen.late_tail_s" "s" Lower;
    m "engine.dm_share" "ratio" Lower;
    m "engine.analytics_share" "ratio" Higher;
    m "engine.unattributed_share" "ratio" Lower;
    m "store.row_build_s" "s" Lower;
    m "store.col_build_s" "s" Lower;
    m "store.array_build_s" "s" Lower;
    m "store.builds_per_request" "count" Lower;
  ]
  @ per_query (fun q -> m (Printf.sprintf "dm.row.%s_s" q) "s" Lower)
  @ per_query (fun q -> m (Printf.sprintf "dm.col.%s_s" q) "s" Lower)
  @ [ m "boundary.roundtrip_s" "s" Lower ]
  @ per_query (fun q -> m (Printf.sprintf "analytics.%s_s" q) "s" Lower)
  @ [
      m "kernel.linreg_fit_s" "s" Lower;
      m "kernel.linreg_fit_flop" "flop" Lower;
      m "kernel.covariance_matrix_s" "s" Lower;
      m "kernel.covariance_matrix_flop" "flop" Lower;
      m "kernel.covariance_matrix_bytes" "B" Lower;
      m "kernel.cov_top_fraction_s" "s" Lower;
      m "kernel.cheng_church_s" "s" Lower;
      m "kernel.svd_top_k_s" "s" Lower;
      m "kernel.wilcoxon_enrichment_s" "s" Lower;
      m "kernel.overlap_sweep_s" "s" Lower;
      m "stream.step_p50_s" "s" Lower;
    ]
  @ per_query (fun q -> m (Printf.sprintf "stream.refresh.%s_p50_s" q) "s" Lower)
  @ [
      m "stream.snapshot_s" "s" Lower;
      m "stream.fallback_recomputes" "count" Lower;
      m "stream.staleness_max_rows" "rows" Lower;
      m "trace.coverage" "ratio" Higher;
    ]

(* Values are printed with every digit the float carries. *)
let number v = Printf.sprintf "%.17g" v

let lookup values name =
  match List.assoc_opt name values with
  | Some v when Float.is_finite v -> v
  | Some _ -> failwith ("e2e: non-finite value for metric " ^ name)
  | None -> failwith ("e2e: no value for metric " ^ name)

let text_lines ~workload catalog values =
  List.map
    (fun x ->
      Printf.sprintf "%s %s %s %s" workload x.name
        (number (lookup values x.name))
        x.unit_)
    catalog

(* The result line: one JSON object, the last line of stdout. *)
let result_line ~correct ~attempted ~failed catalog values =
  let metric x =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
      (number (lookup values x.name))
      x.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric catalog))
