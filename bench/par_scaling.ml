(* Domain-pool scaling: the same kernel at 1, 2 and 4 domains.

   Three kernels cover three subsystems — blocked GEMM (lib/linalg),
   the covariance pipeline (center + syrk), and the streaming hash join
   (lib/relational), which runs on the calling domain at every count,
   so its d2/d4 rows show what idle workers cost. Each (kernel,
   domains) cell carries every wall-clock sample taken after a warmup
   run, plus its speedup over the 1-domain median as a counter, so the
   committed BENCH_par.json baseline guards the 1-domain cost and the
   scaling trend is visible in the same file.

   Three region-latency probes time the pool itself, in nanoseconds: an
   empty region (two chunks, no work), an 8-chunk region of 8k float
   adds, and 100 such regions back to back. At one domain each runs
   inline, so the d1 rows are the cost without the pool.

   Honesty note: speedups here are whatever the host delivers. On a
   single-core container the 2- and 4-domain cells measure pure pool
   overhead (expect <= 1x); on real multicore hardware the row-band
   kernels scale near-linearly. The numbers are measured, never
   synthesized. *)

module Mat = Gb_linalg.Mat
module Pool = Gb_par.Pool
open Gb_relational

let domain_counts = [ 1; 2; 4 ]

let time f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9, r)

let median xs =
  let s = List.sort compare xs in
  List.nth s (List.length s / 2)

(* One kernel at one domain count: warmup, then [samples] timed runs.
   The pool is resized per cell and the result of every run is kept
   live so the compiler cannot drop the work. *)
let measure ~samples ~jobs f =
  Pool.set_jobs jobs;
  ignore (Sys.opaque_identity (f ()));
  List.init samples (fun _ ->
      let dt, r = time f in
      ignore (Sys.opaque_identity r);
      dt)

let join_input ~build_rows ~probe_rows =
  let left_schema =
    Schema.make [ ("gene_id", Value.TInt); ("value", Value.TFloat) ]
  in
  let right_schema =
    Schema.make [ ("gene_id", Value.TInt); ("target", Value.TInt) ]
  in
  let left =
    List.init probe_rows (fun i ->
        [| Value.Int (i mod build_rows); Value.Float (float_of_int i) |])
  in
  let right =
    List.init build_rows (fun i -> [| Value.Int i; Value.Int (i * 7) |])
  in
  ( Ops.of_list left_schema left,
    Ops.of_list right_schema right,
    [ ("gene_id", "gene_id") ] )

(* Region probes: the same bodies at every domain count. Grain 1024 over
   8192 indices is 8 chunks at 2 and at 4 lanes. *)
let region_probes () =
  let buf = Array.make 8192 0. in
  let adds lo hi =
    for i = lo to hi - 1 do
      buf.(i) <- buf.(i) +. 1.
    done
  in
  let eight () = Pool.parallel_for ~grain:1024 ~lo:0 ~hi:8192 adds in
  [
    ( "region-empty",
      "2 chunks",
      fun () -> Pool.parallel_for ~lo:0 ~hi:2 (fun _ _ -> ()) );
    ("region-8chunk", "8x1k adds", eight);
    ( "region-100x",
      "100x8 chunks",
      fun () ->
        for _ = 1 to 100 do
          eight ()
        done );
  ]

let run ~quick =
  let samples = if quick then 3 else 5 in
  let g = Gb_util.Prng.create 0x9A12L in
  let n = if quick then 192 else 384 in
  let a = Mat.random g n n and b = Mat.random g n n in
  let cov_rows = if quick then 1024 else 4096 in
  let cov_cols = if quick then 64 else 128 in
  let tall = Mat.random g cov_rows cov_cols in
  let build_rows = if quick then 2_000 else 8_000 in
  let probe_rows = if quick then 15_000 else 60_000 in
  let jl, jr, on = join_input ~build_rows ~probe_rows in
  let kernels =
    [
      ( "gemm",
        Printf.sprintf "%dx%d" n n,
        fun () -> ignore (Gb_linalg.Blas.gemm a b) );
      ( "covariance",
        Printf.sprintf "%dx%d" cov_rows cov_cols,
        fun () -> ignore (Gb_linalg.Covariance.matrix tall) );
      ( "hash-join",
        Printf.sprintf "%dx%d" probe_rows build_rows,
        fun () -> ignore (Ops.count (Ops.hash_join ~on jl jr)) );
    ]
  in
  let sweep samples probes =
    List.map
      (fun (name, shape, f) ->
        let per_jobs =
          List.map (fun jobs -> (jobs, measure ~samples ~jobs f)) domain_counts
        in
        (name, shape, per_jobs))
      probes
  in
  let results = sweep samples kernels in
  let regions = sweep (if quick then 100 else 400) (region_probes ()) in
  Pool.reset_jobs ();
  Pool.shutdown ();
  Printf.printf "%-12s %-12s %10s %10s %10s %18s\n" "kernel" "shape" "d=1"
    "d=2" "d=4" "speedup d4/d1";
  List.iter
    (fun (name, shape, per_jobs) ->
      let t d = median (List.assoc d per_jobs) in
      Printf.printf "%-12s %-12s %9.4fs %9.4fs %9.4fs %17.2fx\n" name shape
        (t 1) (t 2) (t 4)
        (t 1 /. t 4))
    results;
  Printf.printf "\n%-12s %-12s %10s %10s %10s  (median us)\n" "region"
    "shape" "d=1" "d=2" "d=4";
  List.iter
    (fun (name, shape, per_jobs) ->
      let t d = 1e6 *. median (List.assoc d per_jobs) in
      Printf.printf "%-12s %-12s %10.2f %10.2f %10.2f\n" name shape (t 1)
        (t 2) (t 4))
    regions;
  let record ~unit_ ~scale ~speedup (name, _, per_jobs) =
    let t d = median (List.assoc d per_jobs) in
    List.filter_map
      (fun (jobs, samples) ->
        let counters =
          if speedup && jobs > 1 then [ ("speedup_vs_d1", t 1 /. t jobs) ]
          else []
        in
        Gb_obs.Bench_json.make ~name
          ~size:(Printf.sprintf "d%d" jobs)
          ~unit_ ~counters
          (List.map (fun s -> s *. scale) samples))
      per_jobs
  in
  List.concat_map (record ~unit_:"s" ~scale:1. ~speedup:true) results
  @ List.concat_map (record ~unit_:"ns" ~scale:1e9 ~speedup:false) regions
