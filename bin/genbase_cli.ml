(* Command-line front end for the GenBase benchmark: generate data sets,
   run a single (engine, query, size) cell, or list what's available. *)

open Cmdliner
module Spec = Gb_datagen.Spec

(* A conv over a library parser that reports errors as strings. *)
let conv_of parse print =
  Arg.conv ((fun s -> Result.map_error (fun m -> `Msg m) (parse s)), print)

let size_conv =
  let parse = function
    | "small" -> Ok Spec.Small
    | "medium" -> Ok Spec.Medium
    | "large" -> Ok Spec.Large
    | "xlarge" -> Ok Spec.XLarge
    | s -> Error (`Msg (Printf.sprintf "unknown size %S" s))
  in
  let print fmt s =
    Format.pp_print_string fmt
      (match s with
      | Spec.Small -> "small"
      | Spec.Medium -> "medium"
      | Spec.Large -> "large"
      | Spec.XLarge -> "xlarge")
  in
  Arg.conv (parse, print)

let engine_table nodes =
  [
    ("r", Genbase.Engine_r.engine);
    ("postgres-r", Genbase.Engine_sql.postgres_r);
    ("madlib", Genbase.Engine_madlib.engine);
    ("colstore-r", Genbase.Engine_sql.colstore_r);
    ("colstore-udf", Genbase.Engine_sql.colstore_udf);
    ("scidb", Genbase.Engine_scidb.engine);
    ("scidb-phi", Genbase.Engine_scidb.phi);
    ("hadoop", Genbase.Engine_hadoop.engine);
    ("pbdr", Genbase.Engine_multinode.pbdr ~nodes ());
    ("scidb-mn", Genbase.Engine_multinode.scidb ~nodes ());
    ("scidb-phi-mn", Genbase.Engine_multinode.scidb_phi ~nodes);
    ("colstore-pbdr", Genbase.Engine_multinode.colstore_pbdr ~nodes ());
    ("colstore-udf-mn", Genbase.Engine_multinode.colstore_udf ~nodes ());
    ("hadoop-mn", Genbase.Engine_hadoop.engine_multinode ~nodes ());
  ]

let seed_arg =
  Arg.(
    value
    & opt int64 0x6E0BA5EL
    & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let size_arg =
  Arg.(
    value
    & opt size_conv Spec.Small
    & info [ "size" ] ~docv:"SIZE"
        ~doc:"Data set size: small, medium, large or xlarge.")

let timeout_arg ?(doc = "Benchmark cut-off window.") default =
  Arg.(value & opt float default & info [ "timeout" ] ~docv:"SECONDS" ~doc)

(* Domain-pool sizing. The conv rejects 0, negatives and non-numeric
   input with a usage error; attaching the GENBASE_DOMAINS env var to
   the flag means env values get the same validation for free. *)
let jobs_conv = conv_of Gb_par.Pool.parse_jobs Format.pp_print_int

(* Duration and count flags: non-numeric and out-of-range values are
   usage errors, not runtime surprises. *)
let pos_float_conv what =
  conv_of
    (fun s ->
      match float_of_string_opt (String.trim s) with
      | Some f when f > 0. && Float.is_finite f -> Ok f
      | _ -> Error (Printf.sprintf "%s must be a positive number, got %S" what s))
    Format.pp_print_float

let count_conv ~min what =
  conv_of
    (fun s ->
      match int_of_string_opt (String.trim s) with
      | Some n when n >= min -> Ok n
      | _ ->
        Error (Printf.sprintf "%s must be an integer >= %d, got %S" what min s))
    Format.pp_print_int

let jobs_arg =
  Arg.(
    value
    & opt jobs_conv 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~env:
          (Cmd.Env.info Gb_par.Pool.env_var
             ~doc:"Default for $(b,--jobs); same validation applies.")
        ~doc:
          "Size of the shared Domain pool the wall-clock engines run \
           their kernels on. 1 (the default) is fully sequential and \
           bitwise-reproduces the single-threaded kernels.")

(* Evaluated before each command body: turns the validated count into
   the process-wide pool size. *)
let jobs_term = Term.(const Gb_par.Pool.set_jobs $ jobs_arg)

(* Queries by number or name; anything else is a usage error. *)
let query_conv =
  conv_of
    (fun s ->
      Option.to_result ~none:(Printf.sprintf "unknown query %S" s)
        (Genbase.Query.of_name s))
    (fun fmt q -> Format.pp_print_string fmt (Genbase.Query.name q))

(* Engine lookup for every subcommand that names engines; [sql] is an
   alias for the column store with in-database UDFs. *)
let find_engine nodes key =
  let alias = if key = "sql" then "colstore-udf" else key in
  match List.assoc_opt alias (engine_table nodes) with
  | Some e -> e
  | None ->
    Printf.eprintf "unknown engine %s (try `genbase list`)\n" key;
    exit 2

let write_file file text =
  Out_channel.with_open_text file (fun oc -> output_string oc text)

(* Write a Chrome trace and read it back through the strict importer:
   an export that does not read back is a bug worth failing the run
   over. *)
let write_trace file events =
  let json = Gb_obs.Trace_export.chrome_json events in
  write_file file json;
  match Gb_obs.Trace_export.validate_chrome json with
  | Ok n -> Printf.printf "wrote %s: %d events, valid Chrome trace\n" file n
  | Error msg ->
    Printf.eprintf "exported trace failed validation: %s\n" msg;
    exit 1

(* --- generate --- *)

let generate_cmd =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR" ~doc:"Output directory for the CSV files.")
  in
  let run size seed dir =
    let spec = Spec.of_size size in
    Printf.printf "generating %s...\n%!" (Format.asprintf "%a" Spec.pp spec);
    let ds = Gb_datagen.Generate.generate ~seed spec in
    Gb_datagen.Io.write ~dir ds;
    Printf.printf "wrote microarray.csv, patients.csv, genes.csv, go.csv to %s\n"
      dir
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a benchmark data set as CSV files.")
    Term.(const run $ size_arg $ seed_arg $ dir)

(* --- run --- *)

let describe_payload = function
  | Genbase.Engine.Regression r ->
    Printf.printf "regression: intercept=%.4f, %d coefficients, R^2=%.4f\n"
      r.intercept
      (Array.length r.coefficients)
      r.r2
  | Genbase.Engine.Cov_pairs p ->
    Printf.printf "covariance: %d genes, %d pairs above threshold\n" p.n_genes
      (List.length p.top_pairs);
    List.iteri
      (fun i (a, b, v) ->
        if i < 5 then Printf.printf "  gene %d ~ gene %d: %.4f\n" a b v)
      p.top_pairs
  | Genbase.Engine.Biclusters b ->
    Printf.printf "biclustering: %d clusters\n" (List.length b.clusters);
    List.iter
      (fun (rows, cols, msr) ->
        Printf.printf "  %dx%d, MSR=%.5f\n" (Array.length rows)
          (Array.length cols) msr)
      b.clusters
  | Genbase.Engine.Singular_values s ->
    Printf.printf "svd: %d singular values, top:" (Array.length s);
    Array.iteri (fun i v -> if i < 5 then Printf.printf " %.3f" v) s;
    print_newline ()
  | Genbase.Engine.Enrichment terms ->
    Printf.printf "statistics: %d enriched GO terms\n" (List.length terms);
    List.iteri
      (fun i (t, p) -> if i < 5 then Printf.printf "  GO %d: p=%.2e\n" t p)
      terms
  | Genbase.Engine.Overlaps o ->
    Printf.printf "overlap: %d pairs over %d variants x %d genes\n"
      (List.length o.pairs) o.n_variants o.n_genes;
    List.iteri
      (fun i (v, g, len) ->
        if i < 5 then Printf.printf "  variant %d ~ gene %d: %d bp\n" v g len)
      o.pairs

let overhead_budget_pct = 5.0

(* The CI overhead gate: {!Genbase.Harness.tracing_overhead}'s rounds,
   then its median against the budget. *)
let check_overhead e ds q ~timeout_s =
  match Genbase.Harness.tracing_overhead e ds q ~timeout_s with
  | exception Failure msg ->
    prerr_endline msg;
    exit 1
  | { Genbase.Harness.rounds; median_pct } ->
    List.iteri
      (fun i (off, on) ->
        Printf.printf
          "round %d: disabled best %.6fs  enabled best %.6fs  %+.2f%%\n" i off
          on
          (Genbase.Harness.overhead_pct (off, on)))
      rounds;
    Printf.printf "median overhead: %+.2f%% (budget %.2f%%)\n" median_pct
      overhead_budget_pct;
    if median_pct > overhead_budget_pct then begin
      Printf.eprintf "tracing overhead exceeds budget\n";
      exit 1
    end

(* The traced cell's report: the validated export, the flame tree, the
   span summary, the cell's counters, and its root span against the
   harness total (equal by construction: the root span's duration is
   the kept attempt's engine total). *)
let report_trace file (cell : Genbase.Harness.cell) =
  let module Obs = Gb_obs.Obs in
  let module Tx = Gb_obs.Trace_export in
  let events = Obs.events () in
  write_trace file events;
  print_newline ();
  print_endline (Tx.flame events);
  print_endline (Tx.summary ~exclude_cat:"cell" events);
  (match cell.Genbase.Harness.counters with
  | [] -> ()
  | counters ->
    print_endline "counters:";
    List.iter (fun (name, v) -> Printf.printf "  %-28s %.6g\n" name v) counters);
  let root =
    List.find_map
      (function
        | Obs.Span_ev s when s.Obs.cat = "cell" -> Some s.Obs.dur | _ -> None)
      events
  in
  match (root, Genbase.Harness.total_seconds cell) with
  | Some dur, Some total when Float.is_finite total ->
    Printf.printf "\nroot span %.6fs vs harness total %.6fs (%+.3f%%)\n" dur
      total
      (if total > 0. then 100. *. ((dur /. total) -. 1.) else 0.)
  | _ -> ()

let run_cmd =
  let query =
    Arg.(
      required
      & opt (some query_conv) None
      & info [ "query" ] ~docv:"QUERY"
          ~doc:
            "Query: 1-6, or one of regression, covariance, biclustering, \
             svd, statistics, overlap.")
  in
  let engine =
    Arg.(
      value
      & opt string "scidb"
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Engine name (see $(b,genbase list)); $(b,sql) is an alias for \
             the column store with in-database UDFs.")
  in
  let nodes =
    Arg.(
      value
      & opt (count_conv ~min:1 "N") 1
      & info [ "nodes" ] ~docv:"N" ~doc:"Node count for multi-node engines.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Run the cell with tracing and GC profiling on, write a \
             Perfetto-loadable Chrome trace to FILE, and print the flame \
             tree, the span summary and the telemetry counters.")
  in
  let overhead_check =
    Arg.(
      value & flag
      & info [ "overhead-check" ]
          ~doc:
            "Instead of reporting the cell, measure it with tracing \
             disabled and enabled and exit 1 if the enabled run is more \
             than 5% slower.")
  in
  let run () size seed q engine nodes timeout trace overhead_check =
    let e = find_engine nodes engine in
    let ds = Gb_datagen.Generate.generate ~seed (Spec.of_size size) in
    if overhead_check then check_overhead e ds q ~timeout_s:timeout
    else begin
      (* Tracing turns telemetry on for the cell (run_cell), so its
         counters fill; it also profiles the GC, so spans and counters
         carry allocation deltas. The overhead check leaves profiling
         off, matching the default-off contract it bounds. *)
      if trace <> None then begin
        Gb_obs.Obs.set_enabled true;
        Gb_obs.Profile.set_enabled true;
        Gb_obs.Obs.reset ()
      end;
      let cell = Genbase.Harness.run_cell e ds q ~timeout_s:timeout in
      Gb_obs.Obs.set_enabled false;
      Gb_obs.Profile.set_enabled false;
      (match cell.Genbase.Harness.outcome with
      | Genbase.Engine.Completed (t, payload) ->
        Printf.printf "%s / %s / %s: dm=%.3fs analytics=%.3fs total=%.3fs\n"
          e.Genbase.Engine.name (Genbase.Query.name q) (Spec.label size)
          t.Genbase.Engine.dm t.Genbase.Engine.analytics
          (Genbase.Engine.total t);
        describe_payload payload
      | o ->
        Printf.printf "%s / %s / %s: %s\n" e.Genbase.Engine.name
          (Genbase.Query.name q) (Spec.label size)
          (Format.asprintf "%a" Genbase.Engine.pp_outcome o));
      Option.iter (fun file -> report_trace file cell) trace
    end
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one benchmark query on one engine (best of 5 for sub-second \
          cells; a traced cell runs once), optionally traced to a Chrome \
          trace or checked against the tracing overhead budget.")
    Term.(
      const run $ jobs_term $ size_arg $ seed_arg $ query $ engine $ nodes
      $ timeout_arg 120. $ trace $ overhead_check)

(* --- explain --- *)

let explain_cmd =
  let run () size seed =
    let ds = Gb_datagen.Generate.generate ~seed (Spec.of_size size) in
    let cat =
      Genbase.Relops.catalog
        (Genbase.Engine_sql.make_db Genbase.Engine_sql.Col_backend ds
           ~check:ignore)
    in
    List.iter
      (fun (title, p) ->
        Printf.printf "=== %s ===\n%s" title (Gb_relational.Plan.explain cat p);
        Printf.printf "EXPLAIN ANALYZE:\n%s\n"
          (Gb_relational.Plan.explain_analyze cat p))
      (Genbase.Relops.plans Genbase.Query.default_params
         ~n_patients:(Array.length ds.Gb_datagen.Generate.patients))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the optimized plans the SQL engines execute for the \
          benchmark's DM phases, then execute each and report estimated \
          vs actual per-operator row counts (EXPLAIN ANALYZE).")
    Term.(const run $ jobs_term $ size_arg $ seed_arg)

(* --- seqgen --- *)

let seqgen_cmd =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR" ~doc:"Output directory for counts.csv.")
  in
  let depth =
    Arg.(
      value
      & opt float 20.
      & info [ "depth" ] ~docv:"READS" ~doc:"Mean per-cell read depth.")
  in
  let run size seed dir depth =
    let ds = Gb_datagen.Generate.generate ~seed (Spec.of_size size) in
    let seq = Gb_datagen.Seqdata.of_expression ~seed ~mean_depth:depth ds in
    Gb_datagen.Seqdata.write_csv ~dir seq;
    let total =
      Array.fold_left ( + ) 0 seq.Gb_datagen.Seqdata.library_sizes
    in
    Printf.printf "wrote counts.csv (%d libraries, %d total reads) to %s\n"
      (Array.length seq.Gb_datagen.Seqdata.library_sizes)
      total dir
  in
  Cmd.v
    (Cmd.info "seqgen"
       ~doc:"Generate RNA-seq-style count data from a benchmark data set.")
    Term.(const run $ size_arg $ seed_arg $ dir $ depth)

(* --- suite --- *)

let suite_cmd =
  let out =
    Arg.(
      value
      & opt string "results.csv"
      & info [ "out" ] ~docv:"FILE" ~doc:"CSV file for the raw cell grid.")
  in
  let sizes =
    Arg.(
      value
      & opt (list size_conv) [ Spec.Small ]
      & info [ "sizes" ] ~docv:"SIZES"
          ~doc:"Comma-separated sizes to run, e.g. small,medium,large.")
  in
  let run () seed out timeout sizes =
    let config =
      {
        Genbase.Harness.timeout_s = timeout;
        sizes;
        seed;
        progress = Some (fun s -> Printf.eprintf "%s\n%!" s);
      }
    in
    let cells = Genbase.Harness.single_node_cells config in
    write_file out (Genbase.Harness.to_csv cells);
    Printf.printf "wrote %d cells to %s\n" (List.length cells) out;
    List.iter print_endline (Genbase.Harness.fig1 cells)
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:"Run the full single-node grid and dump raw results as CSV.")
    Term.(const run $ jobs_term $ seed_arg $ out $ timeout_arg 60. $ sizes)

(* --- chaos --- *)

let chaos_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Optional CSV file for the raw cells.")
  in
  let d = Genbase.Harness.default_chaos in
  let prob name ~doc default =
    Arg.(value & opt float default & info [ name ] ~docv:"P" ~doc)
  in
  let fault_seed =
    Arg.(
      value
      & opt int64 d.Genbase.Harness.fault_seed
      & info [ "fault-seed" ] ~docv:"SEED"
          ~doc:"Seed every fault placement derives from.")
  in
  let crash =
    prob "crash" d.Genbase.Harness.crash_p
      ~doc:"Per (node, superstep) crash probability."
  in
  let straggler =
    prob "straggler" d.Genbase.Harness.straggler_p
      ~doc:"Per (node, superstep) straggler probability."
  in
  let oom =
    prob "oom" d.Genbase.Harness.oom_p
      ~doc:"Per (node, superstep) transient out-of-memory probability."
  in
  let drop =
    prob "drop" d.Genbase.Harness.drop_p
      ~doc:"Per communication-op message-loss probability."
  in
  let task_fail =
    prob "task-fail" d.Genbase.Harness.task_fail_p
      ~doc:"Per MapReduce job transient task-failure probability."
  in
  let run () size seed out timeout fault_seed crash straggler oom drop task_fail
      =
    let chaos =
      {
        Genbase.Harness.default_chaos with
        Genbase.Harness.fault_seed;
        crash_p = crash;
        straggler_p = straggler;
        oom_p = oom;
        drop_p = drop;
        task_fail_p = task_fail;
      }
    in
    let config =
      {
        Genbase.Harness.timeout_s = timeout;
        sizes = [ size ];
        seed;
        progress = Some (fun s -> Printf.eprintf "%s\n%!" s);
      }
    in
    let cells =
      Genbase.Harness.chaos_cells ~chaos config
      @ Gb_stream.Exec.chaos_cells chaos
          (Genbase.Dataset.generate ~seed (Spec.of_size size))
          ~timeout_s:timeout
    in
    (match out with
    | None -> ()
    | Some file ->
      write_file file (Genbase.Harness.to_csv cells);
      Printf.printf "wrote %d cells to %s\n" (List.length cells) file);
    print_endline (Genbase.Harness.availability cells)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the multi-node grid under deterministic fault injection and \
          report per-engine availability.")
    Term.(
      const run $ jobs_term $ size_arg $ seed_arg $ out $ timeout_arg 60. $ fault_seed
      $ crash $ straggler $ oom $ drop $ task_fail)

(* --- conformance --- *)

let conformance_cmd =
  let module M = Gb_conformance.Matrix in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "Preset for CI: small data, 3 seeds, short timeout, fuzzed \
             parameters, 2-node chaos check.")
  in
  let seeds =
    Arg.(
      value
      & opt int 3
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Number of data-set seeds (derived from --seed).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"CSV file for the raw conformance cells (the CI artifact).")
  in
  let nodes =
    Arg.(
      value
      & opt (list (count_conv ~min:1 "NODES")) [ 2 ]
      & info [ "nodes" ] ~docv:"NODES"
          ~doc:"Node counts for the chaos conformance grid.")
  in
  let run () size seed quick seeds timeout out nodes =
    let timeout = if quick then 30. else timeout in
    let config =
      {
        M.spec = Spec.of_size (if quick then Spec.Small else size);
        seeds = M.seeds_from ~base:seed (max 1 seeds);
        timeout_s = timeout;
        fuzz = true;
        progress = Some (fun s -> Printf.eprintf "%s\n%!" s);
      }
    in
    let cells = M.differential config in
    let all = cells @ M.chaos_conformance ~node_counts:nodes config in
    print_endline (M.render all);
    print_string (M.summary all);
    (match out with
    | None -> ()
    | Some file ->
      write_file file (M.to_csv all);
      Printf.printf "wrote %d cells to %s\n" (List.length all) file);
    if not (M.conforming all) then exit 1
  in
  Cmd.v
    (Cmd.info "conformance"
       ~doc:
         "Check every engine's answers against the Vanilla R reference \
          (differential + fault-injected grids); exit 1 on any mismatch.")
    Term.(
      const run $ jobs_term $ size_arg $ seed_arg $ quick $ seeds
      $ timeout_arg ~doc:"Per-cell cut-off window." 60.
      $ out $ nodes)

(* --- bench-diff --- *)

let bench_diff_cmd =
  let module B = Gb_obs.Bench_json in
  let base =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"BASE" ~doc:"Baseline BENCH_<section>.json file.")
  in
  let cand =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW" ~doc:"Candidate BENCH_<section>.json file.")
  in
  let threshold =
    Arg.(
      value
      & opt float 20.
      & info [ "threshold" ] ~docv:"PERCENT"
          ~env:(Cmd.Env.info "GENBASE_BENCH_THRESHOLD")
          ~doc:
            "Relative median change below which a difference is noise \
             (an absolute per-unit floor also applies).")
  in
  let run base cand threshold =
    match (B.read base, B.read cand) with
    | Error e, _ | _, Error e ->
      Printf.eprintf "%s\n" e;
      exit 2
    | Ok b, Ok c ->
      if b.B.section <> c.B.section then
        Printf.printf "note: comparing section %S against %S\n" b.B.section
          c.B.section;
      Printf.printf "base:      %s (rev %s%s)\n" base b.B.git_rev
        (if b.B.quick then ", quick" else "");
      Printf.printf "candidate: %s (rev %s%s)\n" cand c.B.git_rev
        (if c.B.quick then ", quick" else "");
      let report = B.diff ~threshold_pct:threshold b c in
      print_string (B.render_report report);
      if B.regressions report <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two BENCH_<section>.json files written by the benchmark \
          driver; exit 1 when any benchmark's median worsened past the \
          noise threshold.")
    Term.(const run $ base $ cand $ threshold)

(* --- serve / load --- *)

(* Queue-policy flag: the conv rejects unknown names with a usage error
   and the accepted set is derived from Admission.policies, so the flag's
   doc can never drift from the implementation. *)
let policy_conv =
  conv_of Gb_serve.Admission.policy_of_string (fun fmt p ->
      Format.pp_print_string fmt (Gb_serve.Admission.policy_to_string p))

let policy_arg =
  Arg.(
    value
    & opt policy_conv Gb_serve.Admission.Fifo
    & info [ "queue-policy" ] ~docv:"POLICY"
        ~doc:
          (Printf.sprintf "Admission queue discipline: %s."
             (String.concat " or "
                (List.map
                   (fun (n, _) -> Printf.sprintf "$(b,%s)" n)
                   Gb_serve.Admission.policies))))

let lanes_arg =
  Arg.(
    value
    & opt (count_conv ~min:1 "N") 4
    & info [ "lanes" ] ~docv:"N" ~doc:"Concurrent query executions.")

let queue_depth_arg =
  Arg.(
    value
    & opt (count_conv ~min:0 "N") 16
    & info [ "queue-depth" ] ~docv:"N" ~doc:"Admission queue bound.")

(* Scenario names and the usage text both come from Loadgen.scenarios,
   the same single-source pattern the bench driver uses for its section
   list. *)
let scenario_conv =
  conv_of Gb_serve.Loadgen.find_scenario
    (fun fmt (sc : Gb_serve.Loadgen.scenario) ->
      Format.pp_print_string fmt sc.Gb_serve.Loadgen.sc_name)

let scenario_arg =
  Arg.(
    value
    & opt scenario_conv (List.hd Gb_serve.Loadgen.scenarios)
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Load scenario: %s."
             (String.concat "; "
                (List.map
                   (fun (s : Gb_serve.Loadgen.scenario) ->
                     Printf.sprintf "$(b,%s) (%s)" s.Gb_serve.Loadgen.sc_name
                       s.Gb_serve.Loadgen.descr)
                   Gb_serve.Loadgen.scenarios))))

let duration_arg =
  Arg.(
    value
    & opt (pos_float_conv "DURATION") 60.
    & info [ "duration" ] ~docv:"N"
        ~doc:"Arrival horizon, in units of the mean service time.")

let deadline_factor_arg =
  Arg.(
    value
    & opt (pos_float_conv "DEADLINE-FACTOR") 8.
    & info [ "deadline-factor" ] ~docv:"X"
        ~doc:"Per-query deadline as a multiple of the mean service time.")

(* Build identity as a constant-1 info gauge, so every exposition (and
   thus every archived dump) says which build produced it. *)
let g_build_info =
  Gb_obs.Telemetry.gauge_family
    ~help:"Build identity; constant 1, labels carry revision and toolchain"
    "genbase_build_info"

(* Telemetry on, from a clean registry stamped with the build identity. *)
let start_telemetry () =
  Gb_obs.Telemetry.set_enabled true;
  Gb_obs.Telemetry.reset ();
  Gb_obs.Telemetry.set g_build_info
    [
      ("ocaml", Sys.ocaml_version);
      ("revision", Gb_obs.Bench_json.git_rev ());
    ]
    1.

(* Render the current telemetry snapshot, write it, and round-trip it
   through the strict mini-parser — a dump that does not re-render to
   the same bytes is a bug worth failing the run over. *)
let write_exposition file =
  let text = Gb_obs.Expo.render (Gb_obs.Telemetry.snapshot ()) in
  write_file file text;
  match Gb_obs.Expo.validate text with
  | Ok n ->
    Printf.printf "wrote %s: %d metric families, exposition round-trips\n"
      file n
  | Error msg ->
    Printf.eprintf "exposition failed round-trip validation: %s\n" msg;
    exit 1

let print_slo_report (r : Gb_serve.Loadgen.run) =
  let module Slo = Gb_obs.Slo in
  let summary = r.Gb_serve.Loadgen.summary in
  let window = r.Gb_serve.Loadgen.window in
  let now = summary.Gb_serve.Loadgen.horizon_s in
  let horizon_s = Gb_obs.Telemetry.Window.horizon_s window in
  let p50, p99, p999 =
    Gb_serve.Loadgen.live_quantiles r ~now ~horizon_s
  in
  let fmt_q = function
    | Some v -> Printf.sprintf "%.6fs" v
    | None -> "-"
  in
  Printf.printf
    "live window (trailing %.1fs at t=%.3fs): p50 %s  p99 %s  p999 %s\n"
    horizon_s now (fmt_q p50) (fmt_q p99) (fmt_q p999);
  (* Ring churn: recycled slots are normal, dropped observations mean
     the live quantiles above have silent gaps. *)
  Printf.printf
    "live window churn: %d sub-window slots recycled, %d stale \
     observations dropped%s\n"
    (Gb_obs.Telemetry.Window.advanced window)
    (Gb_obs.Telemetry.Window.dropped window)
    (if Gb_obs.Telemetry.Window.dropped window > 0 then " (GAPS)" else "");
  List.iter
    (fun (name, burn_long, burn_short, events, firing) ->
      Printf.printf
        "slo %-28s burn_long %6.2f  burn_short %6.2f  events %6d  %s\n" name
        burn_long burn_short events
        (if firing then "FIRING" else "ok"))
    (Slo.summary r.Gb_serve.Loadgen.monitor);
  (match Slo.alerts r.Gb_serve.Loadgen.monitor with
  | [] -> Printf.printf "slo alerts: none\n"
  | alerts ->
    Printf.printf "slo alerts (%d):\n" (List.length alerts);
    List.iter
      (fun (a : Slo.alert) ->
        Printf.printf
          "  %9.3fs %-8s %-28s burn_long %6.2f burn_short %6.2f\n"
          a.Slo.a_at
          (if a.Slo.a_firing then "fire" else "resolve")
          a.Slo.a_slo a.Slo.a_burn_long a.Slo.a_burn_short)
      alerts)

let serve_cmd =
  let module Serve = Gb_serve in
  let deadline =
    Arg.(
      value
      & opt (pos_float_conv "DEADLINE") 60.
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-query deadline. Overrunning kernels are cancelled at \
             their next cooperative checkpoint and reported as \
             deadline-exceeded.")
  in
  let engines =
    Arg.(
      value
      & opt (list string) [ "r"; "colstore-udf"; "scidb" ]
      & info [ "engines" ] ~docv:"E1,E2,..."
          ~doc:"Engines to serve (keys as in $(b,genbase list).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Enable telemetry and write the final Prometheus text \
             exposition to FILE (round-trip validated).")
  in
  let run () size seed lanes queue_depth policy deadline engines metrics_out =
    let resolved = List.map (find_engine 1) engines in
    let ds = Gb_datagen.Generate.generate ~seed (Spec.of_size size) in
    if metrics_out <> None then start_telemetry ();
    let config =
      {
        Serve.Live.lanes;
        queue_depth;
        policy;
        breaker = Serve.Breaker.default_config;
        budget = Genbase.Harness.memory_budget ();
      }
    in
    let t = Serve.Live.create ~config () in
    let handles =
      List.concat_map
        (fun e ->
          List.map
            (fun q ->
              ( e.Genbase.Engine.name,
                q,
                Serve.Live.submit t ~engine:e ~ds ~deadline_s:deadline q ))
            Genbase.Query.all)
        resolved
    in
    let responses =
      List.map (fun (en, q, h) -> (en, q, Serve.Live.await h)) handles
    in
    Serve.Live.shutdown t;
    Printf.printf "%-22s %-14s %-18s %10s %10s\n" "engine" "query"
      "disposition" "wait_s" "exec_s";
    List.iter
      (fun (en, q, (r : Serve.Outcome.response)) ->
        Printf.printf "%-22s %-14s %-18s %10.4f %10.4f\n" en
          (Genbase.Query.name q)
          (Serve.Outcome.label r) r.Serve.Outcome.queue_wait_s
          r.Serve.Outcome.exec_s)
      responses;
    let count p = List.length (List.filter (fun (_, _, r) -> p r) responses) in
    Printf.printf
      "\nserved %d (ok %d), shed %d, deadline-exceeded %d of %d submissions\n"
      (count (fun (r : Serve.Outcome.response) ->
           match r.Serve.Outcome.disposition with
           | Serve.Outcome.Served _ -> true
           | _ -> false))
      (count Serve.Outcome.goodput)
      (count (fun (r : Serve.Outcome.response) ->
           match r.Serve.Outcome.disposition with
           | Serve.Outcome.Shed _ -> true
           | _ -> false))
      (count (fun (r : Serve.Outcome.response) ->
           match r.Serve.Outcome.disposition with
           | Serve.Outcome.Deadline_exceeded _ -> true
           | _ -> false))
      (List.length responses);
    match metrics_out with
    | None -> ()
    | Some file ->
      Gb_obs.Telemetry.set_enabled false;
      print_newline ();
      write_exposition file
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the engine fleet behind the overload-safe serving layer: \
          every (engine, query) pair is submitted through admission \
          control with a per-query deadline and the responses are \
          tabulated.")
    Term.(
      const run $ jobs_term $ size_arg $ seed_arg $ lanes_arg
      $ queue_depth_arg $ policy_arg $ deadline $ engines $ metrics_out)

let load_cmd =
  let module Serve = Gb_serve in
  let csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Write the per-response latency table as CSV.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Enable telemetry and write the final Prometheus text \
             exposition to FILE; the run fails if the exposition does \
             not round-trip through the strict parser or the \
             interpolated p99 disagrees with the exact p99 beyond one \
             bucket width.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Enable tracing and write a Chrome trace of the run; every \
             admit/queue/exec/retry span of one logical request shares \
             one trace id.")
  in
  let record_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"DIR"
          ~doc:
            "Run with the always-on flight recorder and write every \
             anomaly-triggered dump (tail-sampled, validated Chrome \
             traces) into DIR, plus the recorder's keep/drop counters.")
  in
  let run scenario size seed duration lanes queue_depth policy
      deadline_factor csv_out metrics_out trace_out record_out =
    let module Tele = Gb_obs.Telemetry in
    let module Obs = Gb_obs.Obs in
    let module Rec = Gb_obs.Recorder in
    let cfg =
      {
        (Serve.Loadgen.default_config scenario) with
        Serve.Loadgen.seed;
        size;
        duration;
        lanes;
        queue_depth;
        policy;
        deadline_factor;
      }
    in
    if metrics_out <> None then start_telemetry ();
    if trace_out <> None then begin
      Obs.set_enabled true;
      Obs.reset ()
    end;
    if record_out <> None then Rec.start ();
    let r = Serve.Loadgen.run cfg in
    let { Serve.Loadgen.responses; stats; summary; _ } = r in
    Tele.set_enabled false;
    Obs.set_enabled false;
    Rec.stop ();
    Format.printf "%a@." Serve.Loadgen.pp_summary summary;
    (match stats.Serve.Server.breaker_trips with
    | [] -> ()
    | trips ->
      List.iter
        (fun (engine, n) ->
          if n > 0 then Printf.printf "breaker %-24s tripped %d times\n" engine n)
        trips);
    (* Any dump also reports the live window and the SLO monitor. *)
    if metrics_out <> None || trace_out <> None || record_out <> None then begin
      print_newline ();
      print_slo_report r
    end;
    (match metrics_out with
    | None -> ()
    | Some file ->
      write_exposition file;
      (match Serve.Loadgen.p99_agreement summary with
      | None -> ()
      | Some (interp, exact, tolerance) ->
        Printf.printf
          "p99 agreement: interpolated %.6fs vs exact %.6fs (tolerance \
           %.6fs)\n"
          interp exact tolerance;
        if Float.abs (interp -. exact) > tolerance then begin
          Printf.eprintf
            "interpolated p99 disagrees with the exact p99 beyond one \
             bucket width\n";
          exit 1
        end));
    Option.iter (fun file -> write_trace file (Obs.events ())) trace_out;
    (match record_out with
    | None -> ()
    | Some dir ->
      (try Unix.mkdir dir 0o755 with
      | Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let st = Rec.stats () in
      Printf.printf
        "flight recorder: %d dumps (%d suppressed), traces kept %d tail + \
         %d failed + %d sampled of %d fast, %d ring drops\n"
        st.Rec.s_dumps st.Rec.s_suppressed st.Rec.s_tail_kept
        st.Rec.s_fail_kept st.Rec.s_fast_sampled
        (st.Rec.s_fast_sampled + st.Rec.s_fast_discarded)
        st.Rec.s_ring_dropped;
      List.iter
        (fun (d : Rec.dump) ->
          let json = Rec.chrome_of_dump d in
          (* Every dump must read back through the strict trace importer
             and satisfy the analyzer's blame-sum identity — a dump we
             cannot attribute is a bug. *)
          (match Gb_obs.Critpath.of_chrome json with
          | Error msg ->
            Printf.eprintf "dump %d failed trace validation: %s\n" d.Rec.d_seq
              msg;
            exit 1
          | Ok reqs -> (
            match Gb_obs.Critpath.check reqs with
            | Ok _ -> ()
            | Error msg ->
              Printf.eprintf "dump %d: %s\n" d.Rec.d_seq msg;
              exit 1));
          let file =
            Filename.concat dir
              (Printf.sprintf "dump-%02d-%s.json" d.Rec.d_seq
                 (Rec.reason_label d.Rec.d_reason))
          in
          write_file file json;
          Printf.printf
            "wrote %s: %s at t=%.3fs, %d events, %d kept traces\n" file
            (Rec.reason_label d.Rec.d_reason)
            d.Rec.d_at
            (List.length d.Rec.d_events)
            (List.length d.Rec.d_kept))
        (Rec.dumps ()));
    match csv_out with
    | None -> ()
    | Some file ->
      write_file file (Serve.Loadgen.csv_of_responses responses);
      Printf.printf "wrote %s (%d responses)\n" file (List.length responses)
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive the simulated server through a named overload scenario \
          with deterministic synthetic clients and report goodput, tail \
          latencies and shed/timeout counts. With $(b,--metrics) and \
          $(b,--trace), also dump a validated Prometheus exposition and \
          a request-linked Chrome trace, plus the SLO burn-rate report.")
    Term.(
      const run $ scenario_arg $ size_arg $ seed_arg $ duration_arg
      $ lanes_arg $ queue_depth_arg $ policy_arg $ deadline_factor_arg
      $ csv_out $ metrics_out $ trace_out $ record_out)

(* --- analyze / trace-diff --- *)

let read_whole_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let requests_of_trace_file path =
  match Gb_obs.Critpath.of_chrome (read_whole_file path) with
  | Error msg ->
    Printf.eprintf "%s: %s\n" path msg;
    exit 2
  | Ok reqs -> reqs

let analyze_cmd =
  let module Cp = Gb_obs.Critpath in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE.json"
          ~doc:
            "Chrome trace to analyze: a $(b,load --trace) export or a \
             flight-recorder dump from $(b,load --record).")
  in
  let check_only =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Only verify the blame-sum identity (every request's \
             critical-path segments sum exactly to its end-to-end \
             latency) and exit non-zero on any violation. A trace with \
             no serve requests fails too.")
  in
  let limit =
    Arg.(
      value & opt int 20
      & info [ "limit" ] ~docv:"N"
          ~doc:"Per-request rows to print (the profile is always full).")
  in
  let run file check_only limit =
    let reqs = requests_of_trace_file file in
    if reqs = [] then begin
      Printf.eprintf "no serve requests in %s\n" file;
      exit 1
    end;
    match Cp.check reqs with
    | Error msg ->
      Printf.eprintf "blame-sum identity violated: %s\n" msg;
      exit 1
    | Ok n ->
      if check_only then
        Printf.printf "blame-sum identity holds for all %d requests\n" n
      else begin
        Printf.printf "%d requests reconstructed from %s\n\n" n file;
        print_string (Cp.render_profile (Cp.profile reqs));
        print_newline ();
        print_string (Cp.render_requests ~limit reqs);
        Printf.printf "\nblame-sum identity holds for all %d requests\n" n
      end
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Reconstruct per-request critical paths from a Chrome trace and \
          print the cross-request blame profile (p50/p99 share of latency \
          per segment: queue, memory wait, breaker cooldown, retry \
          backoff, execution phases).")
    Term.(const run $ file $ check_only $ limit)

let trace_diff_cmd =
  let module Cp = Gb_obs.Critpath in
  let base =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"BASE" ~doc:"Baseline Chrome trace.")
  in
  let cand =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW" ~doc:"Candidate Chrome trace.")
  in
  let run base cand =
    let b = requests_of_trace_file base in
    let c = requests_of_trace_file cand in
    Printf.printf "base:      %s (%d requests)\n" base (List.length b);
    Printf.printf "candidate: %s (%d requests)\n\n" cand (List.length c);
    print_string (Cp.render_diff (Cp.diff b c))
  in
  Cmd.v
    (Cmd.info "trace-diff"
       ~doc:
         "Compare two Chrome traces request-by-request and localize where \
          latency moved: mean seconds per request for every blame segment \
          in both captures, sorted by movement.")
    Term.(const run $ base $ cand)

(* --- stream --- *)

let stream_cmd =
  let module Ingest = Gb_stream.Ingest in
  let module Exec = Gb_stream.Exec in
  let module Check = Gb_stream.Check in
  let batches_arg =
    Arg.(
      value
      & opt (count_conv ~min:1 "N") 8
      & info [ "batches" ] ~docv:"N"
          ~doc:"Ingest batches to draw from the dataset's stream seed.")
  in
  let crash_at_arg =
    Arg.(
      value
      & opt_all int []
      & info [ "crash-at" ] ~docv:"STEP"
          ~doc:
            "Inject a crash when the executor attempts batch $(docv) \
             (repeatable); recovery restores the last checkpoint and \
             replays.")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt (count_conv ~min:1 "N") 4
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Checkpoint the live state and maintainers every N batches.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write the Prometheus exposition (stream gauges included, \
             round-trip validated) to FILE.")
  in
  let run () size seed batches crash_at checkpoint_every metrics_out =
    start_telemetry ();
    let spec = Spec.of_size size in
    let ds = Gb_datagen.Generate.generate ~seed spec in
    let log = Ingest.generate ~profile:(Ingest.profile ~batches ()) ds in
    let fault =
      match crash_at with
      | [] -> None
      | ks ->
        Some
          (Gb_fault.Fault.of_events
             (List.map
                (fun k -> Gb_fault.Fault.Node_crash { node = 0; superstep = k })
                ks))
    in
    let exec =
      Exec.create ~checkpoint_every ~queries:Genbase.Query.all ds log
    in
    let refresh_s = Hashtbl.create 8 in
    while Exec.lag exec > 0 do
      Exec.step ?fault exec;
      List.iter
        (fun q ->
          let t0 = Unix.gettimeofday () in
          ignore (Exec.refresh exec q);
          let dt = Unix.gettimeofday () -. t0 in
          Hashtbl.replace refresh_s q
            (dt :: (try Hashtbl.find refresh_s q with Not_found -> [])))
        Genbase.Query.all
    done;
    let c = Exec.counters exec in
    Printf.printf
      "ingested %d batches (%d rows, %d cell updates, %d variants); %d \
       checkpoints, %d crashes, %d batches replayed, %.3fs wasted\n"
      c.Exec.batches_applied c.Exec.rows_appended c.Exec.cells_updated
      c.Exec.variants_appended c.Exec.checkpoints c.Exec.crashes
      c.Exec.replayed_batches c.Exec.wasted_s;
    Printf.printf "watermark %d, lag %d\n\n" (Exec.watermark exec)
      (Exec.lag exec);
    let final = Exec.snapshot exec in
    Printf.printf "%-14s %12s %12s %8s  %s\n" "query" "refresh-p50"
      "recompute" "stale" "conformance (refresh vs one-shot)";
    List.iter
      (fun q ->
        let rs = List.sort compare (Hashtbl.find refresh_s q) in
        let p50 = List.nth rs (List.length rs / 2) in
        let recompute =
          match
            Genbase.Engine.run Gb_conformance.Oracle.reference final q
              ~timeout_s:600.0 ()
          with
          | Genbase.Engine.Completed (t, _) ->
            Printf.sprintf "%10.2fms" (1e3 *. Genbase.Engine.total t)
          | o -> Format.asprintf "%a" Genbase.Engine.pp_outcome o
        in
        (* classify force-refreshes (resetting the staleness counter),
           so read the counter first *)
        let stale = Exec.staleness exec q in
        let cls = Check.classify exec q in
        Printf.printf "%-14s %10.2fms %12s %8d  %s\n" (Genbase.Query.name q)
          (1e3 *. p50) recompute stale
          (Gb_conformance.Oracle.describe cls))
      Genbase.Query.all;
    Gb_obs.Telemetry.set_enabled false;
    Option.iter write_exposition metrics_out
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Replay a deterministic ingest log through the incremental \
          maintainers, optionally crashing mid-stream, then check every \
          refreshed answer against a one-shot recompute and report \
          refresh latencies, staleness and recovery work.")
    Term.(
      const run $ jobs_term $ size_arg $ seed_arg $ batches_arg $ crash_at_arg
      $ checkpoint_arg $ metrics_out)

(* --- list --- *)

let list_cmd =
  let run () =
    print_endline "queries:";
    List.iter
      (fun q -> Printf.printf "  %-14s %s\n" (Genbase.Query.name q) (Genbase.Query.title q))
      Genbase.Query.all;
    print_endline "engines (single node):";
    List.iter
      (fun (key, e) ->
        if e.Genbase.Engine.kind = `Single_node then
          Printf.printf "  %-16s %s\n" key e.Genbase.Engine.name)
      (engine_table 1);
    print_endline "engines (multi-node; pass --nodes):";
    List.iter
      (fun (key, e) ->
        if e.Genbase.Engine.kind <> `Single_node then
          Printf.printf "  %-16s %s\n" key e.Genbase.Engine.name)
      (engine_table 2)
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List available queries and engines.")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "genbase" ~version:"1.0.0"
      ~doc:"The GenBase complex-analytics genomics benchmark."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd; run_cmd; suite_cmd; chaos_cmd; conformance_cmd;
            explain_cmd; seqgen_cmd; bench_diff_cmd; analyze_cmd;
            trace_diff_cmd; serve_cmd; load_cmd; stream_cmd; list_cmd;
          ]))
