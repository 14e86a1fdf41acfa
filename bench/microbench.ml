(* Bechamel microbenchmarks of the kernels every engine is built from: one
   Test.make per kernel, reported as ns/run from the OLS fit against the
   monotonic clock. *)

open Bechamel
open Toolkit
module Mat = Gb_linalg.Mat

let rng () = Gb_util.Prng.create 0xBE7CL

let dataset = lazy (Gb_datagen.Generate.generate (Gb_datagen.Spec.custom ~genes:120 ~patients:160))

let tests () =
  let g = rng () in
  let a = Mat.random g 96 96 and b = Mat.random g 96 96 in
  let tall = Mat.random g 256 32 in
  let y = Array.init 256 (fun _ -> Gb_util.Prng.normal g) in
  let sym = Gb_linalg.Blas.ata tall in
  let scores = Array.init 2_000 (fun _ -> Gb_util.Prng.normal g) in
  let xs = Array.sub scores 0 200 and ys = Array.sub scores 200 800 in
  let ds = Lazy.force dataset in
  let micro_rows = Genbase.Dataset.microarray_rows ds in
  let row_store =
    Gb_relational.Row_store.of_rows Genbase.Dataset.microarray_schema micro_rows
  in
  let col_store =
    Gb_relational.Col_store.of_rows Genbase.Dataset.microarray_schema micro_rows
  in
  let chunked = Gb_arraydb.Chunked.of_matrix ds.Gb_datagen.Generate.expression in
  let some_rows = Array.init 40 (fun i -> i * 2) in
  let export_target = Mat.random g 64 64 in
  (* Q1's and Q4's shapes on Medium: an 800x141 least-squares design and
     the tridiagonal of a 140-step Lanczos run. *)
  let q1_design = Mat.random g 800 141 in
  let tri_d = Array.init 140 (fun _ -> Gb_util.Prng.normal g) in
  let tri_e = Array.init 139 (fun _ -> Gb_util.Prng.normal g) in
  (* Q3's input: the default age/gender selection of a Small dataset. *)
  let q3 =
    let small = Gb_datagen.Generate.generate (Gb_datagen.Spec.of_size Small) in
    let p = Genbase.Query.default_params in
    Mat.sub_rows small.Gb_datagen.Generate.expression
      (Genbase.Qcommon.patients_by_age_gender small ~max_age:p.max_age
         ~gender:p.gender)
  in
  [
    Test.make ~name:"gemm 96x96 (blocked)"
      (Staged.stage (fun () -> ignore (Gb_linalg.Blas.gemm a b)));
    Test.make ~name:"gemm 96x96 (naive, Mahout-class)"
      (Staged.stage (fun () -> ignore (Gb_linalg.Blas.gemm_naive a b)));
    Test.make ~name:"qr 256x32"
      (Staged.stage (fun () -> ignore (Gb_linalg.Qr.factorize tall)));
    Test.make ~name:"qr 800x141"
      (Staged.stage (fun () -> ignore (Gb_linalg.Qr.factorize q1_design)));
    Test.make ~name:"tridiag eigen 140"
      (Staged.stage (fun () -> ignore (Gb_linalg.Tridiag.eigen tri_d tri_e)));
    Test.make ~name:"cheng_church"
      (Staged.stage (fun () -> ignore (Gb_bicluster.Cheng_church.run q3)));
    Test.make ~name:"linreg 256x32"
      (Staged.stage (fun () -> ignore (Gb_linalg.Linreg.fit tall y)));
    Test.make ~name:"covariance 256x32"
      (Staged.stage (fun () -> ignore (Gb_linalg.Covariance.matrix tall)));
    Test.make ~name:"lanczos top-8 of 32x32"
      (Staged.stage (fun () ->
           ignore (Gb_linalg.Lanczos.top_eigen ~rng:(rng ()) sym 8)));
    Test.make ~name:"wilcoxon 200 vs 800"
      (Staged.stage (fun () -> ignore (Gb_stats.Wilcoxon.rank_sum_test xs ys)));
    Test.make ~name:"ranks n=2000"
      (Staged.stage (fun () -> ignore (Gb_stats.Ranking.ranks scores)));
    Test.make ~name:"row store scan 19200 tuples"
      (Staged.stage (fun () ->
           ignore
             (Gb_relational.Ops.count
                (Gb_relational.Ops.scan_row_store row_store
                   [ "gene_id"; "patient_id"; "value" ]))));
    Test.make ~name:"col store scan 19200 tuples"
      (Staged.stage (fun () ->
           ignore
             (Gb_relational.Ops.count
                (Gb_relational.Ops.scan_col_store col_store
                   [ "gene_id"; "patient_id"; "value" ]))));
    Test.make ~name:"col store scan (1 column)"
      (Staged.stage (fun () ->
           ignore
             (Gb_relational.Ops.count
                (Gb_relational.Ops.scan_col_store col_store [ "value" ]))));
    Test.make ~name:"chunked select 40 rows"
      (Staged.stage (fun () ->
           ignore (Gb_arraydb.Chunked.select_rows chunked some_rows)));
    Test.make ~name:"csv export roundtrip 64x64"
      (Staged.stage (fun () ->
           ignore (Gb_relational.Export.roundtrip_matrix export_target)));
  ]

let run ~quick =
  let quota = if quick then Time.second 0.25 else Time.second 1.0 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~stabilize:true () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let results =
    List.map
      (fun test ->
        let name = Test.Elt.name (List.hd (Test.elements test)) in
        let raw = Benchmark.all cfg instances test in
        let analyzed = Analyze.all ols Instance.monotonic_clock raw in
        let est =
          Hashtbl.fold
            (fun _ v acc ->
              match Analyze.OLS.estimates v with
              | Some (t :: _) -> Some t
              | _ -> acc)
            analyzed None
        in
        (name, est))
      (tests ())
  in
  let rows =
    List.map
      (fun (name, est) ->
        [
          name;
          (match est with
          | Some ns when ns >= 1e6 -> Printf.sprintf "%.2f ms" (ns /. 1e6)
          | Some ns when ns >= 1e3 -> Printf.sprintf "%.2f us" (ns /. 1e3)
          | Some ns -> Printf.sprintf "%.0f ns" ns
          | None -> "n/a");
        ])
      results
  in
  print_endline
    (Gb_util.Render.table ~headers:[ "kernel"; "time/run" ] ~rows);
  (* The OLS estimate is already a per-run statistic over Bechamel's many
     samples; it becomes the record's single "sample". *)
  List.filter_map
    (fun (name, est) ->
      Option.bind est (fun ns ->
          Gb_obs.Bench_json.make ~name ~unit_:"ns" [ ns ]))
    results
