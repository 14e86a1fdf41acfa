(* Q6 overlap-join benchmarks: the parallel sort-merge sweep kernel, the
   indexed join Vanilla R runs, the quadratic nested loop that defines
   the join, and the end-to-end interval-join plan through the column
   store (scan + planner + sweep + canonical sort).

   Before timing anything, every kernel's answer is checked: the section
   exits 1 unless all four return the nested loop's pair list (compared
   in canonical order). Every record also carries the pair count as a
   counter, so the committed BENCH_q6.json baseline guards the answer
   size as well as the runtime. *)

module Ranges = Gb_util.Ranges
module Pool = Gb_par.Pool

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let median xs =
  let s = List.sort compare xs in
  List.nth s (List.length s / 2)

(* Each kernel already ran once for the answer check, which warms it. *)
let measure ~samples f =
  List.init samples (fun _ ->
      let dt, r = time f in
      ignore (Sys.opaque_identity r);
      dt)

let run ~quick =
  let samples = if quick then 3 else 5 in
  let genes = if quick then 300 else 1000 in
  let patients = if quick then 600 else 2000 in
  let spec = Gb_datagen.Spec.custom ~genes ~patients in
  let ds = Genbase.Dataset.generate ~seed:0xC0FFEEL spec in
  let vivs = Genbase.Qcommon.variant_ivs ds in
  let givs = Genbase.Qcommon.gene_ivs ds in
  let shape =
    Printf.sprintf "%dx%d" (Array.length vivs) (Array.length givs)
  in
  let db =
    Genbase.Engine_sql.make_db Genbase.Engine_sql.Col_backend ds
      ~check:(fun () -> ())
  in
  let params = Genbase.Query.default_params in
  let min_overlap = params.min_overlap_bp in
  let kernels =
    [
      ( "overlap-sweep",
        fun () -> Genbase.Qcommon.overlap_sweep ~min_overlap vivs givs );
      ("indexed-join", fun () -> Ranges.indexed_join ~min_overlap vivs givs);
      ( "nested-loop-oracle",
        fun () -> Ranges.nested_loop_join ~min_overlap vivs givs );
      ("interval-join-plan", fun () -> Genbase.Relops.q6_dm db params);
    ]
  in
  let answers =
    List.map (fun (name, f) -> (name, List.sort compare (f ()))) kernels
  in
  let definition = List.assoc "nested-loop-oracle" answers in
  let wrong = List.filter (fun (_, pairs) -> pairs <> definition) answers in
  if wrong <> [] then begin
    List.iter
      (fun (name, pairs) ->
        Printf.eprintf
          "q6: %s returned %d pairs that differ from the nested loop's %d\n"
          name (List.length pairs) (List.length definition))
      wrong;
    exit 1
  end;
  let pairs = float_of_int (List.length definition) in
  let results =
    List.map (fun (name, f) -> (name, median (measure ~samples f))) kernels
  in
  Pool.shutdown ();
  Printf.printf "%-20s %-12s %10s %10s\n" "kernel" "shape" "median" "pairs";
  List.iter
    (fun (name, med) ->
      Printf.printf "%-20s %-12s %9.4fs %10.0f\n" name shape med pairs)
    results;
  List.filter_map
    (fun (name, med) ->
      Gb_obs.Bench_json.make ~name ~query:"overlap" ~size:shape ~unit_:"s"
        ~counters:[ ("pairs", pairs) ]
        [ med ])
    results
