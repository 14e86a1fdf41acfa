module Chunked = Gb_arraydb.Chunked
module Attr = Gb_arraydb.Attr_array
module Ranges = Gb_util.Ranges

(* Selections are dimension filters over the attribute arrays; the
   selected cells leave the chunked array as a dense matrix. *)
let arrays (ds : Dataset.t) =
  let adb = Dataset.load_array_db ds in
  let patients keep =
    Attr.filter adb.patient_attrs (keep (Attr.get adb.patient_attrs))
  in
  let genes_below (params : Query.params) =
    Attr.filter adb.gene_attrs (fun i ->
        Attr.get adb.gene_attrs "func" i < float_of_int params.func_threshold)
  in
  let rows ids = Chunked.to_matrix (Chunked.select_rows adb.expression ids) in
  let cols ids = Chunked.to_matrix (Chunked.select_cols adb.expression ids) in
  let b =
    {
      Engine_single.q1 =
        (fun params ->
          ( cols (genes_below params),
            Attr.column adb.patient_attrs "drug_response" ));
      q2 =
        (fun params ->
          let pat_ids =
            patients (fun get i ->
                get "disease_id" i = float_of_int params.disease_id)
          in
          let genes = snd (Chunked.dims adb.expression) in
          (rows pat_ids, Array.init genes Fun.id));
      q3 =
        (fun params ->
          rows
            (patients (fun get i ->
                 get "age" i < float_of_int params.max_age
                 && get "gender" i = float_of_int params.gender)));
      q4 = (fun params -> cols (genes_below params));
      q5 =
        (fun params ->
          ( Qcommon.enrichment_scores
              (rows (Qcommon.sampled_patients ds params.sample_fraction)),
            adb.go_pairs ));
      (* Chunk-aligned range intersection: the coordinate axis is divided
         into fixed-width chunks (the array store's natural layout); each
         interval is replicated into every chunk it touches during dm,
         and analytics intersects within each chunk independently. A pair
         is counted only by the chunk owning max(starts), so replication
         never double-counts. Chunks are processed via the pool over a
         pool-size-independent list, and the final canonical sort makes
         the payload identical to every other plan. *)
      q6 =
        (fun params ->
          let bin_width = Ranges.default_bin_width in
          let vivs =
            Array.mapi
              (fun id (start, len) -> Ranges.of_start_len ~id ~start ~len)
              adb.variant_ranges
          in
          let givs = Qcommon.gene_ivs ds in
          let hi m (iv : Ranges.iv) = max m iv.hi in
          let max_hi = Array.fold_left hi (Array.fold_left hi 0 vivs) givs in
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
          let vbins = scatter vivs and gbins = scatter givs in
          fun () ->
            Gb_par.Pool.map_list
              (fun bin ->
                Ranges.sweep_join ~min_overlap:params.min_overlap_bp vbins.(bin)
                  gbins.(bin)
                |> List.filter (fun (v, g, _) ->
                       Ranges.owns_pair ~bin_width ~bin vivs.(v) givs.(g)))
              (List.init nbins Fun.id)
            |> List.concat);
      (* Step 4: pair gene ids look up the metadata attribute arrays — a
         native array cross-lookup, no recast. *)
      metadata =
        Some
          ( "dm:metadata",
            fun pairs ->
              ignore
                (List.rev_map
                   (fun (g1, _, _) -> Attr.get adb.gene_attrs "func" g1)
                   pairs) );
    }
  in
  fun ~check:_ -> b

let make ~name device =
  Engine_single.make ~name ~clock:(Engine_single.Sim device) arrays

let engine = make ~name:"SciDB" None
let phi = make ~name:"SciDB + Xeon Phi" (Some Gb_coproc.Device.xeon_phi_5110p)
