(* GenBase benchmark driver: regenerates every table and figure from the
   paper's evaluation (Figures 1-5 and Table 1) plus the ablation, weak
   scaling, crossover, chaos and observability sections, and Bechamel
   microbenchmarks of the core kernels.

   The section list below is the single source of truth: the usage
   string and argument parsing both derive from it, so adding a section
   cannot leave a stale usage message behind. With no selection,
   everything runs. Every section additionally writes its measurements
   as structured records to BENCH_<section>.json in the working
   directory (see Gb_obs.Bench_json; compare runs with
   `genbase bench-diff`). Figures 1 and 2 share one cell grid and one
   file, as do Figures 3 and 4. *)

module H = Genbase.Harness

let sections =
  [ "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "table1"; "micro"; "ablation";
    "weak"; "crossover"; "chaos"; "obs"; "par"; "serve"; "slo"; "q6";
    "critpath"; "stream" ]

let usage () =
  Printf.sprintf "usage: main.exe [%s] [--quick] [--timeout SECONDS]"
    (String.concat "|" sections)

let parse_args () =
  let selected = ref [] in
  let quick = ref false in
  let timeout = ref None in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      go rest
    | "--timeout" :: v :: rest ->
      timeout := Some (float_of_string v);
      go rest
    | arg :: rest when List.mem arg sections ->
      selected := arg :: !selected;
      go rest
    | arg :: _ ->
      Printf.eprintf "unknown argument %s\n%s\n" arg (usage ());
      exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  let selected = if !selected = [] then sections else List.rev !selected in
  (selected, !quick, !timeout)

let () =
  let selected, quick, timeout = parse_args () in
  let t0 = Unix.gettimeofday () in
  let progress s =
    Printf.eprintf "[%7.1fs] %s\n%!" (Unix.gettimeofday () -. t0) s
  in
  let config =
    let base = if quick then H.quick_config else H.default_config in
    let base =
      match timeout with None -> base | Some t -> { base with H.timeout_s = t }
    in
    { base with H.progress = Some progress }
  in
  let want s = List.mem s selected in
  let banner s =
    print_newline ();
    print_endline (String.make 72 '=');
    print_endline s;
    print_endline (String.make 72 '=')
  in
  let emit section records =
    let path = Gb_obs.Bench_json.write ~section ~quick records in
    progress
      (Printf.sprintf "wrote %s (%d records)" path (List.length records))
  in

  (* Figures 1 and 2 chart one cell grid, as do Figures 3 and 4; each
     grid's records go to one file, named after the first of its
     figures that was asked for, so no record is written twice. *)
  let grid (a, chart_a) (b, chart_b) title cells_of =
    if want a || want b then begin
      banner title;
      let cells = cells_of config in
      if want a then List.iter print_endline (chart_a cells);
      if want b then List.iter print_endline (chart_b cells);
      emit (if want a then a else b) (H.bench_records cells)
    end
  in
  grid ("fig1", H.fig1) ("fig2", H.fig2) "Single-node results (Figures 1 and 2)"
    H.single_node_cells;
  grid ("fig3", H.fig3) ("fig4", H.fig4) "Multi-node results (Figures 3 and 4)"
    H.multi_node_cells;

  if want "fig5" then begin
    banner "Coprocessor results (Figure 5)";
    let cells = H.phi_cells config in
    List.iter print_endline (H.fig5 cells);
    emit "fig5" (H.bench_records cells)
  end;

  if want "table1" then begin
    banner "Coprocessor analytics speedup (Table 1)";
    let cells = H.phi_mn_cells config in
    print_endline (H.table1 cells);
    emit "table1" (H.bench_records cells)
  end;

  if want "ablation" then begin
    banner "Design ablations (Section 6 discussion points)";
    emit "ablation" (Ablations.run ())
  end;

  if want "weak" then begin
    banner "Weak scaling (the experiment Section 5 announces)";
    emit "weak" (Weak_scaling.run ())
  end;

  if want "crossover" then begin
    banner "DM/analytics crossover (Section 6.1)";
    emit "crossover" (Crossover.run ())
  end;

  if want "chaos" then begin
    banner "Availability under fault injection (chaos scenario)";
    emit "chaos" (Chaos.run config)
  end;

  if want "micro" then begin
    banner "Kernel microbenchmarks (Bechamel)";
    emit "micro" (Microbench.run ~quick)
  end;

  if want "obs" then begin
    banner "Observability hook overhead (Bechamel)";
    emit "obs" (Obsbench.run ())
  end;

  if want "par" then begin
    banner "Domain-pool scaling (GEMM, covariance, hash join at 1/2/4 domains)";
    emit "par" (Par_scaling.run ~quick)
  end;

  if want "serve" then begin
    banner "Overload-safe serving (tail latency, goodput, shedding)";
    emit "serve" (Serve_bench.run ~quick)
  end;

  if want "slo" then begin
    banner "SLO burn-rate alerting (deterministic fire/resolve instants)";
    emit "slo" (Slo_bench.run ~quick)
  end;

  if want "critpath" then begin
    banner "Critical-path blame (flight recorder, deterministic dumps)";
    emit "critpath" (Critpath_bench.run ~quick)
  end;

  if want "stream" then begin
    banner "Streaming ingest: refresh vs recompute per batch size";
    emit "stream" (Stream_bench.run ~quick)
  end;

  if want "q6" then begin
    banner
      "Q6 overlap join (sweep kernel, indexed join, nested loop, planner path)";
    emit "q6" (Q6_bench.run ~quick)
  end;

  Printf.eprintf "[%7.1fs] done\n%!" (Unix.gettimeofday () -. t0)
