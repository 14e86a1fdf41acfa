module Mat = Gb_linalg.Mat
module Sim = Gb_util.Clock.Sim
module Device = Gb_coproc.Device

type backend = {
  q1 : Query.params -> Mat.t * float array;
  q2 : Query.params -> Mat.t * int array;
  q3 : Query.params -> Mat.t;
  q4 : Query.params -> Mat.t;
  q5 : Query.params -> float array * (int * int) array;
  q6 : Query.params -> unit -> (int * int * int) list;
  metadata : (string * ((int * int * float) list -> unit)) option;
}

type clock = Wall | Sim of Device.t option

(* What crosses a boundary: a matrix as itself, a vector as a
   one-column matrix. *)
let matrix through m = through m

let column through y =
  Mat.col (through (Mat.init (Array.length y) 1 (fun i _ -> y.(i)))) 0

let run ~clock ~boundary ~marshal (ds : Dataset.t) session query
    ~(params : Query.params) ~timeout_s =
  let dl = Gb_util.Deadline.start ~seconds:timeout_s in
  let check () = Gb_util.Deadline.check dl in
  let b = session ~check in
  (* On a simulated clock, host work advances it by its measured time,
     and analytics offloaded to a device charge PCIe transfers and the
     kernel's measured time divided by the device's speedup for its
     class. *)
  let sim =
    match clock with Wall -> None | Sim device -> Some (Sim.create (), device)
  in
  let clock = Option.map (fun (c, _) () -> Sim.now c) sim in
  let phase name f =
    Engine.phase ?clock ~check name (fun () ->
        match sim with None -> f () | Some (c, _) -> Sim.run_measured c f)
  in
  let analytics cls ~bytes_in ~bytes_out f =
    match sim with
    | Some (c, Some dev) ->
      Engine.phase ?clock ~check "analytics" (fun () ->
          Device.offload dev c ~bytes_in ~bytes_out cls f)
    | _ -> phase "analytics" f
  in
  (* The boundary, when there is one, is its own phase, and its seconds
     count as data management. *)
  let cross ship x =
    match boundary with
    | None -> (x, 0.)
    | Some through -> phase "boundary" (fun () -> ship through x)
  in
  let finish dm (payload, analytics) =
    Engine.Completed ({ dm; analytics }, payload)
  in
  match query with
  | Query.Q1_regression ->
    let (x, y), dm0 = phase "dm" (fun () -> b.q1 params) in
    let (x, y), dm1 = cross (fun t (x, y) -> (matrix t x, column t y)) (x, y) in
    finish (dm0 +. dm1)
      (analytics Device.Blas3
         ~bytes_in:(Mat.byte_size x + (8 * Array.length y))
         ~bytes_out:(8 * (x.Mat.cols + 1))
         (fun () -> Qcommon.regression_of x y))
  | Query.Q2_covariance ->
    let (m, gene_ids), dm0 = phase "dm" (fun () -> b.q2 params) in
    let m, dm1 = cross matrix m in
    let payload, analytics =
      analytics Device.Blas3 ~bytes_in:(Mat.byte_size m)
        ~bytes_out:(8 * Array.length gene_ids * Array.length gene_ids)
        (fun () ->
          Qcommon.covariance_of ~gene_ids
            ~top_fraction:params.cov_top_fraction m)
    in
    (* Step 4: the thresholded pairs go back to the store and meet the
       gene metadata. *)
    let dm2 =
      match (b.metadata, payload) with
      | Some (name, join), Engine.Cov_pairs p ->
        snd (phase name (fun () -> join p.top_pairs))
      | _ -> 0.
    in
    finish (dm0 +. dm1 +. dm2) (payload, analytics)
  | Query.Q3_biclustering ->
    let m, dm0 = phase "dm" (fun () -> b.q3 params) in
    let m, dm1 = cross matrix m in
    finish (dm0 +. dm1)
      (analytics Device.Light ~bytes_in:(Mat.byte_size m) ~bytes_out:4096
         (fun () ->
           marshal m;
           Qcommon.biclusters_of m))
  | Query.Q4_svd ->
    let x, dm0 = phase "dm" (fun () -> b.q4 params) in
    let x, dm1 = cross matrix x in
    finish (dm0 +. dm1)
      (analytics Device.Blas2 ~bytes_in:(Mat.byte_size x)
         ~bytes_out:(8 * params.svd_k * (x.Mat.rows + x.Mat.cols))
         (fun () -> Qcommon.svd_of ~k:params.svd_k x))
  | Query.Q5_statistics ->
    let (scores, go_pairs), dm0 = phase "dm" (fun () -> b.q5 params) in
    let scores, dm1 = cross column scores in
    let go_terms = ds.spec.Gb_datagen.Spec.go_terms in
    finish (dm0 +. dm1)
      (analytics Device.Stat
         ~bytes_in:((8 * Array.length scores) + (16 * Array.length go_pairs))
         ~bytes_out:(16 * go_terms)
         (fun () ->
           Qcommon.enrichment_of ~n_genes:(Array.length scores) ~go_pairs
             ~go_terms ~p_threshold:params.p_threshold ~scores))
  | Query.Q6_overlap ->
    (* Only the integer pair list leaves the store, and it costs the same
       on either side of a boundary: Q6 never crosses one. *)
    let join, dm = phase "dm" (fun () -> b.q6 params) in
    let n_variants = Array.length ds.variants in
    let n_genes = Array.length ds.genes in
    finish dm
      (analytics Device.Stat
         ~bytes_in:(16 * (n_variants + n_genes))
         ~bytes_out:(24 * n_variants)
         (fun () -> Qcommon.overlaps_of ~n_variants ~n_genes (join ())))

let make ~name ?(clock = Wall) ?boundary ?(marshal = ignore) build =
  {
    Engine.name;
    kind = `Single_node;
    supports = (fun _ -> true);
    prepare = (fun ds -> run ~clock ~boundary ~marshal ds (build ds));
  }
