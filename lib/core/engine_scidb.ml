module Sim = Gb_util.Clock.Sim
module Mat = Gb_linalg.Mat
module Chunked = Gb_arraydb.Chunked
module Attr = Gb_arraydb.Attr_array
module Device = Gb_coproc.Device

let mat_bytes m =
  let r, c = Mat.dims m in
  8 * r * c

let run_with_clock ?offload ds =
  let adb = Dataset.load_array_db ds in
  fun query ~(params : Query.params) ~timeout_s ->
  let dl = Gb_util.Deadline.start ~seconds:timeout_s in
  let clock = Sim.create () in
  let phase name f =
    let t0 = Sim.now clock in
    let gc = Gb_obs.Profile.start () in
    let r = Sim.run_measured clock f in
    Gb_util.Deadline.check dl;
    let t1 = Sim.now clock in
    Gb_obs.Obs.Span.emit ~cat:"phase"
      ~attrs:(Gb_obs.Profile.delta_attrs gc)
      ~name ~t0 ~t1 ();
    (r, t1 -. t0)
  in
  (* Analytics dispatch: host custom code, or offload to the coprocessor
     (charging PCIe transfers and dividing measured kernel time by the
     device speedup for that kernel class). *)
  let analytics_phase ~bytes_in ~bytes_out cls f =
    let t0 = Sim.now clock in
    let r =
      match offload with
      | None -> Device.host_time clock f
      | Some dev -> Device.offload dev clock ~bytes_in ~bytes_out cls f
    in
    Gb_util.Deadline.check dl;
    let t1 = Sim.now clock in
    Gb_obs.Obs.Span.emit ~cat:"phase" ~name:"analytics" ~t0 ~t1 ();
    (r, t1 -. t0)
  in
  let go_terms = ds.Gb_datagen.Generate.spec.Gb_datagen.Spec.go_terms in
  match query with
  | Query.Q1_regression ->
    let (x, y), dm =
      phase "dm" (fun () ->
          let gene_ids =
            Attr.filter adb.Dataset.gene_attrs (fun i ->
                Attr.get adb.Dataset.gene_attrs "func" i
                < float_of_int params.func_threshold)
          in
          let sel = Chunked.select_cols adb.Dataset.expression gene_ids in
          let y = Attr.column adb.Dataset.patient_attrs "drug_response" in
          (Chunked.to_matrix sel, y))
    in
    let payload, analytics =
      analytics_phase
        ~bytes_in:(mat_bytes x + (8 * Array.length y))
        ~bytes_out:(8 * (snd (Mat.dims x) + 1))
        Device.Blas3
        (fun () -> Qcommon.regression_of x y)
    in
    Engine.Completed ({ dm; analytics }, payload)
  | Query.Q2_covariance ->
    let (m, gene_ids), dm0 =
      phase "dm" (fun () ->
          let pat_ids =
            Attr.filter adb.Dataset.patient_attrs (fun i ->
                Attr.get adb.Dataset.patient_attrs "disease_id" i
                = float_of_int params.disease_id)
          in
          let sel = Chunked.select_rows adb.Dataset.expression pat_ids in
          let _, g = Chunked.dims adb.Dataset.expression in
          (Chunked.to_matrix sel, Array.init g Fun.id))
    in
    let payload, analytics =
      analytics_phase ~bytes_in:(mat_bytes m)
        ~bytes_out:(8 * Array.length gene_ids * Array.length gene_ids)
        Device.Blas3
        (fun () ->
          Qcommon.covariance_of ~gene_ids
            ~top_fraction:params.cov_top_fraction m)
    in
    (* Step 4: pair gene ids look up the metadata attribute arrays — a
       native array cross-lookup, no recast. *)
    let pairs =
      match payload with Engine.Cov_pairs p -> p.top_pairs | _ -> []
    in
    let _meta, dm1 =
      phase "dm:metadata" (fun () ->
          List.rev_map
            (fun (g1, _, _) ->
              Attr.get adb.Dataset.gene_attrs "func" g1)
            pairs)
    in
    Engine.Completed ({ dm = dm0 +. dm1; analytics }, payload)
  | Query.Q3_biclustering ->
    let m, dm =
      phase "dm" (fun () ->
          let pat_ids =
            Attr.filter adb.Dataset.patient_attrs (fun i ->
                Attr.get adb.Dataset.patient_attrs "age" i
                < float_of_int params.max_age
                && Attr.get adb.Dataset.patient_attrs "gender" i
                   = float_of_int params.gender)
          in
          Chunked.to_matrix (Chunked.select_rows adb.Dataset.expression pat_ids))
    in
    let payload, analytics =
      analytics_phase ~bytes_in:(mat_bytes m) ~bytes_out:4096 Device.Light
        (fun () -> Qcommon.biclusters_of m)
    in
    Engine.Completed ({ dm; analytics }, payload)
  | Query.Q4_svd ->
    let x, dm =
      phase "dm" (fun () ->
          let gene_ids =
            Attr.filter adb.Dataset.gene_attrs (fun i ->
                Attr.get adb.Dataset.gene_attrs "func" i
                < float_of_int params.func_threshold)
          in
          Chunked.to_matrix (Chunked.select_cols adb.Dataset.expression gene_ids))
    in
    let payload, analytics =
      analytics_phase ~bytes_in:(mat_bytes x)
        ~bytes_out:(8 * params.svd_k * (fst (Mat.dims x) + snd (Mat.dims x)))
        Device.Blas2
        (fun () -> Qcommon.svd_of ~k:params.svd_k x)
    in
    Engine.Completed ({ dm; analytics }, payload)
  | Query.Q5_statistics ->
    let scores, dm =
      phase "dm" (fun () ->
          let sample =
            Qcommon.sampled_patients ds params.sample_fraction
          in
          Qcommon.enrichment_scores
            (Chunked.to_matrix
               (Chunked.select_rows adb.Dataset.expression sample)))
    in
    let payload, analytics =
      analytics_phase
        ~bytes_in:((8 * Array.length scores) + (16 * Array.length adb.Dataset.go_pairs))
        ~bytes_out:(16 * go_terms) Device.Stat
        (fun () ->
          Qcommon.enrichment_of ~n_genes:(Array.length scores)
            ~go_pairs:adb.Dataset.go_pairs ~go_terms
            ~p_threshold:params.p_threshold ~scores)
    in
    Engine.Completed ({ dm; analytics }, payload)
  | Query.Q6_overlap ->
    (* Chunk-aligned range intersection: the coordinate axis is divided
       into fixed-width chunks (the array store's natural layout); each
       interval is replicated into every chunk it touches during dm, and
       analytics intersects within each chunk independently.  A pair is
       counted only by the chunk owning max(starts), so replication never
       double-counts.  Chunks are processed via the pool over a
       pool-size-independent list, and the final canonical sort makes
       the payload identical to every other plan. *)
    let module Ranges = Gb_util.Ranges in
    let bin_width = Ranges.default_bin_width in
    let (vbins, gbins, nbins), dm =
      phase "dm" (fun () ->
          let vivs =
            Array.mapi
              (fun id (vstart, vlen) ->
                Ranges.of_start_len ~id ~start:vstart ~len:vlen)
              adb.Dataset.variant_ranges
          in
          let givs = Qcommon.gene_ivs ds in
          let max_hi =
            let m = ref 0 in
            Array.iter (fun (iv : Ranges.iv) -> m := max !m iv.hi) vivs;
            Array.iter (fun (iv : Ranges.iv) -> m := max !m iv.hi) givs;
            !m
          in
          let nbins = 1 + Ranges.bin_of ~bin_width (max 0 (max_hi - 1)) in
          let scatter ivs =
            let bins = Array.make nbins [] in
            for i = Array.length ivs - 1 downto 0 do
              List.iter
                (fun b ->
                  if b >= 0 && b < nbins then bins.(b) <- ivs.(i) :: bins.(b))
                (Ranges.bins_of ~bin_width ivs.(i))
            done;
            Array.map Array.of_list bins
          in
          (scatter vivs, scatter givs, nbins))
    in
    let n_variants = Array.length adb.Dataset.variant_ranges in
    let n_genes = Array.length ds.Gb_datagen.Generate.genes in
    let payload, analytics =
      analytics_phase
        ~bytes_in:(16 * (n_variants + n_genes))
        ~bytes_out:(24 * n_variants) Device.Stat
        (fun () ->
          let per_bin =
            Gb_par.Pool.map_list
              (fun bin ->
                Ranges.sweep_join ~min_overlap:params.min_overlap_bp
                  vbins.(bin) gbins.(bin)
                |> List.filter (fun (v, g, _) ->
                       Ranges.owns_pair ~bin_width ~bin
                         (Ranges.of_start_len ~id:v
                            ~start:
                              (fst adb.Dataset.variant_ranges.(v))
                            ~len:(snd adb.Dataset.variant_ranges.(v)))
                         (let gn = ds.Gb_datagen.Generate.genes.(g) in
                          Ranges.of_start_len ~id:g ~start:gn.position
                            ~len:gn.length)))
              (List.init nbins Fun.id)
          in
          Qcommon.overlaps_of ~n_variants ~n_genes (List.concat per_bin))
    in
    Engine.Completed ({ dm; analytics }, payload)

let engine =
  {
    Engine.name = "SciDB";
    kind = `Single_node;
    supports = (fun _ -> true);
    prepare = (fun ds -> run_with_clock ds);
  }
