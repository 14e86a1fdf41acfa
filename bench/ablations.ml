(* Ablation experiments for the design points the paper's discussion
   (Section 6) calls out:

   - 6.2 "Analytics": storage format matters — row-store tuple decode vs
     columnar late materialization; and the O(N) format-conversion cost of
     shipping data to an external package, measured against data size.
   - 6.2/6.3 "Algorithms": kernel implementation matters — blocked BLAS vs
     a naive triple loop vs linear algebra simulated in SQL, on the same
     multiply.
   - 6.3: approximate algorithms (randomized SVD, sampled covariance)
     against their exact counterparts — the paper's suggestion for scaling
     past the sizes none of the tested systems could handle. *)

module Mat = Gb_linalg.Mat
module Stopwatch = Gb_util.Clock.Stopwatch
open Gb_relational

let time f = snd (Stopwatch.time f)
let fmt = Gb_util.Render.seconds

(* One structured record per timed measurement, so ablation timings land
   in BENCH_ablation.json alongside the printed tables. *)
let rec_ ~name ?size t =
  Option.to_list (Gb_obs.Bench_json.make ~name ?size ~unit_:"s" [ t ])

let storage_formats () =
  print_endline "Ablation: storage format (microarray table scans)";
  let measured =
    List.map
      (fun size ->
        let ds = Genbase.Dataset.of_size size in
        let rel_rows = Genbase.Dataset.microarray_rows ds in
        let rs = Row_store.of_rows Genbase.Dataset.microarray_schema rel_rows in
        let cs = Col_store.of_rows Genbase.Dataset.microarray_schema rel_rows in
        let t_row =
          time (fun () ->
              ignore
                (Ops.count
                   (Ops.scan_row_store rs [ "gene_id"; "patient_id"; "value" ])))
        in
        let t_col_all =
          time (fun () ->
              ignore
                (Ops.count
                   (Ops.scan_col_store cs [ "gene_id"; "patient_id"; "value" ])))
        in
        let t_col_one =
          time (fun () -> ignore (Ops.count (Ops.scan_col_store cs [ "value" ])))
        in
        let compressed =
          List.fold_left (fun acc (_, _, b) -> acc + b) 0
            (Col_store.compression_report cs)
        in
        let raw = Row_store.page_count rs * Row_store.page_size in
        let label = Gb_datagen.Spec.label size in
        ( [
            label;
            string_of_int (Row_store.row_count rs);
            fmt t_row;
            fmt t_col_all;
            fmt t_col_one;
            Printf.sprintf "%.2fx" (float_of_int raw /. float_of_int compressed);
          ],
          rec_ ~name:"row scan" ~size:label t_row
          @ rec_ ~name:"col scan (3 cols)" ~size:label t_col_all
          @ rec_ ~name:"col scan (1 col)" ~size:label t_col_one ))
      [ Gb_datagen.Spec.Small; Gb_datagen.Spec.Medium ]
  in
  print_endline
    (Gb_util.Render.table
       ~headers:
         [ "size"; "tuples"; "row scan"; "col scan (3 cols)";
           "col scan (1 col)"; "compression" ]
       ~rows:(List.map fst measured));
  List.concat_map snd measured

let export_boundary () =
  print_endline
    "Ablation: external-package boundary (CSV round-trip, Section 6.2's O(N) \
     conversion)";
  let g = Gb_util.Prng.create 9L in
  let measured =
    List.map
      (fun n ->
        let m = Mat.random g n n in
        let t = time (fun () -> ignore (Export.roundtrip_matrix m)) in
        let label = Printf.sprintf "%dx%d" n n in
        ( [
            label;
            fmt t;
            Printf.sprintf "%.1f MB/s"
              (float_of_int (8 * n * n) /. t /. 1e6);
          ],
          rec_ ~name:"csv round-trip" ~size:label t ))
      [ 100; 200; 400; 800 ]
  in
  print_endline
    (Gb_util.Render.table
       ~headers:[ "matrix"; "round-trip"; "throughput" ]
       ~rows:(List.map fst measured));
  List.concat_map snd measured

let kernel_implementations () =
  print_endline
    "Ablation: the same multiply, three implementations (blocked BLAS-style \
     / naive loops / simulated in SQL)";
  let g = Gb_util.Prng.create 10L in
  let measured =
    List.map
      (fun n ->
        let a = Mat.random g n n and b = Mat.random g n n in
        let t_blocked = time (fun () -> ignore (Gb_linalg.Blas.gemm a b)) in
        let t_naive = time (fun () -> ignore (Gb_linalg.Blas.gemm_naive a b)) in
        let t_sql =
          if n > 128 then None
          else
            Some
              (time (fun () ->
                   ignore
                     (Sql_linalg.to_matrix ~rows:n ~cols:n
                        (Sql_linalg.matmul (Sql_linalg.of_matrix a)
                           (Sql_linalg.of_matrix b)))))
        in
        let label = Printf.sprintf "%dx%d" n n in
        ( [
            label;
            fmt t_blocked;
            fmt t_naive;
            (match t_sql with Some t -> fmt t | None -> "(skipped)");
          ],
          rec_ ~name:"gemm blocked" ~size:label t_blocked
          @ rec_ ~name:"gemm naive" ~size:label t_naive
          @
          match t_sql with
          | Some t -> rec_ ~name:"gemm sql-simulated" ~size:label t
          | None -> [] ))
      [ 64; 128; 256 ]
  in
  print_endline
    (Gb_util.Render.table
       ~headers:[ "matrix"; "blocked"; "naive"; "SQL-simulated" ]
       ~rows:(List.map fst measured));
  List.concat_map snd measured

let approximate_algorithms () =
  print_endline
    "Ablation: exact vs approximate analytics (Section 6.3's suggestion for \
     scaling past the largest data set)";
  let measured =
    List.map
      (fun size ->
        let ds = Genbase.Dataset.of_size size in
        let gene_ids =
          Genbase.Qcommon.genes_with_func_below ds
            Gb_datagen.Generate.func_threshold
        in
        let x = Mat.sub_cols ds.Gb_datagen.Generate.expression gene_ids in
        let k = 50 in
        let rng () = Gb_util.Prng.create 3L in
        let exact = ref None in
        let t_exact =
          time (fun () -> exact := Some (Gb_linalg.Svd.top_k ~rng:(rng ()) x k))
        in
        let approx = ref None in
        let t_approx =
          time (fun () ->
              approx :=
                Some
                  (Gb_linalg.Randomized.svd ~rng:(rng ()) ~power_iterations:1
                     x k))
        in
        let exact = Option.get !exact and approx = Option.get !approx in
        let rel_err =
          let n = min (Array.length exact.Gb_linalg.Svd.s) 10 in
          let acc = ref 0. in
          for i = 0 to n - 1 do
            acc :=
              Float.max !acc
                (Float.abs
                   (exact.Gb_linalg.Svd.s.(i) -. approx.Gb_linalg.Svd.s.(i))
                /. exact.Gb_linalg.Svd.s.(i))
          done;
          !acc
        in
        let m_all = ds.Gb_datagen.Generate.expression in
        let cov_exact = ref None in
        let t_cov =
          time (fun () -> cov_exact := Some (Gb_linalg.Covariance.matrix m_all))
        in
        let sample_rows = max 10 (fst (Mat.dims m_all) / 10) in
        let cov_approx = ref None in
        let t_cov_s =
          time (fun () ->
              cov_approx :=
                Some
                  (Gb_linalg.Randomized.covariance_sample ~rng:(rng ())
                     ~rows:sample_rows m_all))
        in
        let cov_err =
          Mat.max_abs_diff (Option.get !cov_exact) (Option.get !cov_approx)
          /. Float.max 1e-9 (Mat.frobenius (Option.get !cov_exact))
        in
        let label = Gb_datagen.Spec.label size in
        ( [
            [
              label ^ " svd";
              fmt t_exact;
              fmt t_approx;
              Printf.sprintf "%.2fx" (t_exact /. t_approx);
              Printf.sprintf "%.4f%%" (100. *. rel_err);
            ];
            [
              label ^ " covariance";
              fmt t_cov;
              fmt t_cov_s;
              Printf.sprintf "%.2fx" (t_cov /. t_cov_s);
              Printf.sprintf "%.4f%%" (100. *. cov_err);
            ];
          ],
          rec_ ~name:"svd exact" ~size:label t_exact
          @ rec_ ~name:"svd randomized" ~size:label t_approx
          @ rec_ ~name:"covariance exact" ~size:label t_cov
          @ rec_ ~name:"covariance sampled" ~size:label t_cov_s ))
      [ Gb_datagen.Spec.Medium; Gb_datagen.Spec.Large; Gb_datagen.Spec.XLarge ]
  in
  print_endline
    (Gb_util.Render.table
       ~headers:
         [ "workload"; "exact"; "approximate"; "speedup";
           "rel. error" ]
       ~rows:(List.concat_map fst measured));
  List.concat_map snd measured

let larger_than_memory () =
  print_endline
    "Ablation: tables larger than the buffer pool (scan cost of disk \
     faulting vs memory-resident)";
  let ds = Genbase.Dataset.of_size Gb_datagen.Spec.Small in
  let rel_rows = Genbase.Dataset.microarray_rows ds in
  let rs = Row_store.of_rows Genbase.Dataset.microarray_schema rel_rows in
  let t_ram = time (fun () -> Row_store.iter rs (fun _ -> ())) in
  let measured =
    List.map
      (fun frames ->
        let ps =
          Paged_store.of_rows ~pool_frames:frames
            Genbase.Dataset.microarray_schema rel_rows
        in
        let t = time (fun () -> Paged_store.iter ps (fun _ -> ())) in
        let stats = Paged_store.pool_stats ps in
        let total_pages = Paged_store.page_count ps in
        Paged_store.close ps;
        ( [
            Printf.sprintf "%d frames / %d pages" frames total_pages;
            fmt t;
            Printf.sprintf "%.1fx" (t /. t_ram);
            string_of_int stats.Buffer_pool.evictions;
          ],
          rec_ ~name:"paged scan"
            ~size:(Printf.sprintf "%d frames" frames)
            t ))
      [ 64; 8; 2 ]
  in
  print_endline
    (Gb_util.Render.table
       ~headers:
         [ "buffer pool"; "full scan"; "vs in-memory"; "evictions" ]
       ~rows:
         ([ [ "in-memory row store"; fmt t_ram; "1.0x"; "-" ] ]
         @ List.map fst measured));
  rec_ ~name:"in-memory row scan" t_ram @ List.concat_map snd measured

let biclustering_algorithms () =
  print_endline
    "Ablation: biclustering algorithm choice (Cheng-Church greedy deletion \
     vs Dhillon spectral co-clustering) on the Q3 selection";
  let measured =
    List.map
      (fun size ->
        let ds = Genbase.Dataset.of_size size in
        let sel =
          Genbase.Qcommon.patients_by_age_gender ds ~max_age:40 ~gender:1
        in
        let m = Mat.sub_rows ds.Gb_datagen.Generate.expression sel in
        let cc = ref [] in
        let t_cc = time (fun () -> cc := Gb_bicluster.Cheng_church.run m) in
        let sp = ref [] in
        let t_sp =
          time (fun () ->
              sp :=
                Gb_bicluster.Spectral.run
                  ~rng:(Gb_util.Prng.create 1L)
                  ~k:4 m)
        in
        let cc_msr =
          match !cc with
          | b :: _ -> Printf.sprintf "%.4f" b.Gb_bicluster.Cheng_church.msr
          | [] -> "-"
        in
        let sp_msr =
          match
            List.filter
              (fun (c : Gb_bicluster.Spectral.cocluster) ->
                Array.length c.rows >= 2 && Array.length c.cols >= 2)
              !sp
          with
          | c :: _ ->
            Printf.sprintf "%.4f"
              (Gb_bicluster.Cheng_church.mean_squared_residue m c.rows c.cols)
          | [] -> "-"
        in
        let label = Gb_datagen.Spec.label size in
        ( [ label; fmt t_cc; cc_msr; fmt t_sp; sp_msr ],
          rec_ ~name:"cheng-church" ~size:label t_cc
          @ rec_ ~name:"spectral cocluster" ~size:label t_sp ))
      [ Gb_datagen.Spec.Small; Gb_datagen.Spec.Medium ]
  in
  print_endline
    (Gb_util.Render.table
       ~headers:
         [ "size"; "cheng-church"; "msr"; "spectral"; "msr (1st cocluster)" ]
       ~rows:(List.map fst measured));
  List.concat_map snd measured

let run () =
  let r1 = storage_formats () in
  print_newline ();
  let r2 = larger_than_memory () in
  print_newline ();
  let r3 = export_boundary () in
  print_newline ();
  let r4 = kernel_implementations () in
  print_newline ();
  let r5 = biclustering_algorithms () in
  print_newline ();
  let r6 = approximate_algorithms () in
  r1 @ r2 @ r3 @ r4 @ r5 @ r6
