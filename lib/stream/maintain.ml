module G = Gb_datagen.Generate
module Mat = Gb_linalg.Mat
module Moments = Gb_linalg.Moments
module Ranges = Gb_util.Ranges
module Query = Genbase.Query
module Engine = Genbase.Engine
module Qcommon = Genbase.Qcommon

type config = { params : Query.params; staleness_limit : int }

let default_config = { params = Query.default_params; staleness_limit = 256 }

(* --- per-family state --------------------------------------------------- *)

(* Q1: joint sketch over (selected genes ++ drug response); appends are
   buffered per batch and folded in at [flush]. *)
type q1 = {
  sel : int array; (* ascending gene ids with func < threshold *)
  slot : int array; (* gene_id -> index in [sel], or -1 *)
  mutable sketch : Moments.t; (* dim = |sel| + 1 *)
  mutable pending : (G.patient * float array) list; (* newest first *)
}

type q2 = {
  mutable cohort : bool array; (* patient_id -> disease-cohort member *)
  mutable sketch : Moments.t; (* dim = n_genes *)
}

(* Q5: per-gene sums over the first-[k] sample, maintained in exactly
   [Mat.col_means]'s summation order (see the .mli). *)
type q5 = {
  mutable k : int;
  sums : float array;
}

type q6 = {
  gene_ivs : Ranges.iv array;
  mutable rev_chunks : (int * int * int) list list;
      (* newest delta first; each chunk canonical, ids monotone across
         chunks, so [List.concat (List.rev rev_chunks)] is canonical *)
}

(* Q3/Q4: cached payload + rows applied since it was materialized. *)
type fallback = { mutable payload : Engine.payload; mutable stale : int }

type t = {
  config : config;
  genes : int;
  mutable q1 : q1 option;
  mutable q2 : q2 option;
  mutable q3 : fallback option;
  mutable q4 : fallback option;
  mutable q5 : q5 option;
  mutable q6 : q6 option;
  mutable recomputes : int;
}

(* --- selection predicates over the live view (mirror the reference
   engine's id-ascending subsets) ----------------------------------------- *)

let live_patients_where live pred =
  let acc = ref [] in
  for i = Live.n_patients live - 1 downto 0 do
    if pred (Live.patient live i) then acc := i :: !acc
  done;
  Array.of_list !acc

let live_sub_rows live ids =
  Mat.init (Array.length ids) (Live.n_genes live) (fun i j ->
      Live.cell live ~patient_id:ids.(i) ~gene_id:j)

(* --- init --------------------------------------------------------------- *)

let init_q1 live (params : Query.params) =
  let sel =
    Qcommon.genes_with_func_below (Live.base live) params.Query.func_threshold
  in
  let d = Array.length sel in
  let slot = Array.make (Live.n_genes live) (-1) in
  Array.iteri (fun s gid -> slot.(gid) <- s) sel;
  let n = Live.n_patients live in
  let joint =
    Mat.init n (d + 1) (fun i j ->
        if j < d then Live.cell live ~patient_id:i ~gene_id:sel.(j)
        else (Live.patient live i).G.drug_response)
  in
  { sel; slot; sketch = Moments.of_matrix joint; pending = [] }

let init_q2 live (params : Query.params) =
  let ids =
    live_patients_where live (fun p ->
        p.G.disease_id = params.Query.disease_id)
  in
  let cohort = Array.make (max 1 (Live.n_patients live)) false in
  Array.iter (fun i -> cohort.(i) <- true) ids;
  { cohort; sketch = Moments.of_matrix (live_sub_rows live ids) }

let init_q5 live (params : Query.params) =
  let k =
    Query.sample_size params.Query.sample_fraction (Live.n_patients live)
  in
  let g = Live.n_genes live in
  let sums = Array.make g 0.0 in
  for i = 0 to k - 1 do
    for j = 0 to g - 1 do
      sums.(j) <- sums.(j) +. Live.cell live ~patient_id:i ~gene_id:j
    done
  done;
  { k; sums }

let init_q6 live (params : Query.params) =
  let ds = Live.base live in
  let gene_ivs = Qcommon.gene_ivs ds in
  let vivs = Qcommon.variant_ivs ds in
  let pairs =
    Qcommon.overlap_sweep ~min_overlap:params.Query.min_overlap_bp vivs
      gene_ivs
  in
  { gene_ivs; rev_chunks = [ pairs ] }

let recompute_q3 t live =
  let params = t.config.params in
  let ids =
    live_patients_where live (fun p ->
        p.G.age < params.Query.max_age && p.G.gender = params.Query.gender)
  in
  Qcommon.biclusters_of (live_sub_rows live ids)

let recompute_q4 t live =
  let params = t.config.params in
  let sel =
    Qcommon.genes_with_func_below (Live.base live) params.Query.func_threshold
  in
  let m =
    Mat.init (Live.n_patients live) (Array.length sel) (fun i j ->
        Live.cell live ~patient_id:i ~gene_id:sel.(j))
  in
  Qcommon.svd_of ~k:params.Query.svd_k m

let create ?(config = default_config) ~queries live =
  let has q = List.mem q queries in
  let params = config.params in
  let t =
    {
      config;
      genes = Live.n_genes live;
      q1 = None;
      q2 = None;
      q3 = None;
      q4 = None;
      q5 = None;
      q6 = None;
      recomputes = 0;
    }
  in
  if has Query.Q1_regression then t.q1 <- Some (init_q1 live params);
  if has Query.Q2_covariance then t.q2 <- Some (init_q2 live params);
  if has Query.Q3_biclustering then
    t.q3 <- Some { payload = recompute_q3 t live; stale = 0 };
  if has Query.Q4_svd then
    t.q4 <- Some { payload = recompute_q4 t live; stale = 0 };
  if has Query.Q5_statistics then t.q5 <- Some (init_q5 live params);
  if has Query.Q6_overlap then t.q6 <- Some (init_q6 live params);
  t

let copy t =
  {
    t with
    q1 =
      Option.map
        (fun (s : q1) -> { s with sketch = Moments.copy s.sketch })
        t.q1;
    q2 =
      Option.map
        (fun (s : q2) ->
          {
            cohort = Array.copy s.cohort;
            sketch = Moments.copy s.sketch;
          })
        t.q2;
    q3 = Option.map (fun (f : fallback) -> { f with stale = f.stale }) t.q3;
    q4 = Option.map (fun (f : fallback) -> { f with stale = f.stale }) t.q4;
    q5 = Option.map (fun (s : q5) -> { s with sums = Array.copy s.sums }) t.q5;
    q6 = Option.map (fun (s : q6) -> { s with rev_chunks = s.rev_chunks }) t.q6;
  }

(* --- event hooks -------------------------------------------------------- *)

let touch_fallback t =
  let bump = Option.iter (fun (f : fallback) -> f.stale <- f.stale + 1) in
  bump t.q3;
  bump t.q4

(* Q5 sample growth: fold the newly sampled rows into the per-gene sums,
   patients ascending (the .mli exactness note). *)
let q5_grow t live (s : q5) =
  let k' =
    Query.sample_size t.config.params.Query.sample_fraction
      (Live.n_patients live)
  in
  for i = s.k to k' - 1 do
    let row = Live.row live i in
    Array.iteri (fun j v -> s.sums.(j) <- s.sums.(j) +. v) row
  done;
  s.k <- max s.k k'

let on_append t live (p : G.patient) row =
  Option.iter
    (fun (s : q1) -> s.pending <- (p, row) :: s.pending)
    t.q1;
  Option.iter
    (fun (s : q2) ->
      let n = Live.n_patients live in
      if Array.length s.cohort < n then begin
        let c' = Array.make (max 8 (2 * n)) false in
        Array.blit s.cohort 0 c' 0 (Array.length s.cohort);
        s.cohort <- c'
      end;
      if p.G.disease_id = t.config.params.Query.disease_id then begin
        s.cohort.(p.G.patient_id) <- true;
        Moments.add_row s.sketch row
      end)
    t.q2;
  Option.iter (fun s -> q5_grow t live s) t.q5;
  touch_fallback t

let joint_of_row (s : q1) row y =
  let d = Array.length s.sel in
  Array.init (d + 1) (fun j -> if j < d then row.(s.sel.(j)) else y)

let on_update t live ~patient_id ~gene_id ~old_row =
  Option.iter
    (fun (s : q1) ->
      if s.slot.(gene_id) >= 0 then begin
        let y = (Live.patient live patient_id).G.drug_response in
        let old_joint = joint_of_row s old_row y in
        let new_joint = Array.copy old_joint in
        new_joint.(s.slot.(gene_id)) <-
          Live.cell live ~patient_id ~gene_id;
        Moments.remove_row s.sketch old_joint;
        Moments.add_row s.sketch new_joint
      end)
    t.q1;
  Option.iter
    (fun (s : q2) ->
      if patient_id < Array.length s.cohort && s.cohort.(patient_id) then begin
        Moments.remove_row s.sketch old_row;
        Moments.add_row s.sketch (Live.row live patient_id)
      end)
    t.q2;
  Option.iter
    (fun (s : q5) ->
      (* In-sample cell update: re-fold the affected column from the live
         matrix so the sum stays the exact ascending fold. *)
      if patient_id < s.k then begin
        let acc = ref 0.0 in
        for i = 0 to s.k - 1 do
          acc := !acc +. Live.cell live ~patient_id:i ~gene_id
        done;
        s.sums.(gene_id) <- !acc
      end)
    t.q5;
  touch_fallback t

let on_variants t _live vs =
  Option.iter
    (fun (s : q6) ->
      if vs <> [] then begin
        let ivs =
          Array.of_list
            (List.map
               (fun (v : G.variant) ->
                 Ranges.of_start_len ~id:v.G.variant_id ~start:v.G.vstart
                   ~len:v.G.vlen)
               vs)
        in
        let delta =
          Qcommon.overlap_sweep
            ~min_overlap:t.config.params.Query.min_overlap_bp ivs s.gene_ivs
        in
        s.rev_chunks <- delta :: s.rev_chunks
      end)
    t.q6

(* Q1 batch boundary: rank-1-update the joint sketch with each buffered
   append, in arrival order. *)
let flush t =
  Option.iter
    (fun (s : q1) ->
      List.iter
        (fun ((p : G.patient), row) ->
          Moments.add_row s.sketch (joint_of_row s row p.G.drug_response))
        (List.rev s.pending);
      s.pending <- [])
    t.q1

(* --- answers ------------------------------------------------------------ *)

let q1_payload (s : q1) =
  let r = Moments.regression s.sketch in
  Engine.Regression
    {
      intercept = r.Moments.intercept;
      coefficients = r.Moments.coefficients;
      r2 = r.Moments.r_squared;
    }

let q2_payload t (s : q2) =
  let cov = Moments.covariance s.sketch in
  let pairs =
    Gb_linalg.Covariance.top_fraction cov t.config.params.Query.cov_top_fraction
  in
  Engine.Cov_pairs { n_genes = t.genes; top_pairs = pairs }

let q5_payload t live (s : q5) =
  let ds = Live.base live in
  let k = float_of_int (max 1 s.k) in
  let scores = Array.map (fun sum -> sum /. k) s.sums in
  Qcommon.enrichment_of ~n_genes:t.genes ~go_pairs:ds.G.go
    ~go_terms:ds.G.spec.Gb_datagen.Spec.go_terms
    ~p_threshold:t.config.params.Query.p_threshold ~scores

let q6_payload live (s : q6) =
  let pairs = List.concat (List.rev s.rev_chunks) in
  Engine.Overlaps
    {
      n_variants = Live.n_variants live;
      n_genes = Array.length s.gene_ivs;
      pairs;
    }

let missing q =
  invalid_arg
    (Printf.sprintf "Stream.Maintain: query %s is not maintained"
       (Query.name q))

let refresh ?(force = false) t live q =
  let fallback (f : fallback) recompute =
    if force || f.stale > t.config.staleness_limit then begin
      f.payload <- recompute t live;
      f.stale <- 0;
      t.recomputes <- t.recomputes + 1
    end;
    f.payload
  in
  match q with
  | Query.Q1_regression -> (
    flush t;
    match t.q1 with Some s -> q1_payload s | None -> missing q)
  | Query.Q2_covariance -> (
    match t.q2 with Some s -> q2_payload t s | None -> missing q)
  | Query.Q3_biclustering -> (
    match t.q3 with Some f -> fallback f recompute_q3 | None -> missing q)
  | Query.Q4_svd -> (
    match t.q4 with Some f -> fallback f recompute_q4 | None -> missing q)
  | Query.Q5_statistics -> (
    match t.q5 with Some s -> q5_payload t live s | None -> missing q)
  | Query.Q6_overlap -> (
    match t.q6 with Some s -> q6_payload live s | None -> missing q)

let staleness t q =
  match q with
  | Query.Q3_biclustering -> (
    match t.q3 with Some f -> f.stale | None -> missing q)
  | Query.Q4_svd -> ( match t.q4 with Some f -> f.stale | None -> missing q)
  | _ -> 0

let recomputes t = t.recomputes
