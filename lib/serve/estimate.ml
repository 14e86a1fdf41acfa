(* Explain-style cost model: the same selectivity estimates the
   relational planner prints for the DM phases (func < 250 keeps 25% of
   genes, one disease of 21, Q3's age/gender cut, Q5's 5% sample),
   composed with per-query kernel flop counts. Everything is a pure
   function of the dimensions, so a shortest-job-first scheduler ranks
   identically across runs and the simulated server's service times
   replay bit-for-bit. *)

(* Fractions of the generator's attribute distributions selected by the
   default parameters (Generate: func ~ U[0,1000), 21 diseases,
   age ~ 18+U[0,78), gender ~ U{0,1}). *)
let sel_func = float_of_int Gb_datagen.Generate.func_threshold /. 1000.
let sel_disease = 1. /. 21.
let sel_q3 = 0.5 *. (float_of_int (40 - 18) /. 78.)
let sel_sample = 0.05

(* Q6 reads both interval tables whole (no attribute predicate); the
   planner's output estimate (~3/2 pairs per input interval) shows up in
   the flop and byte models below instead. *)
let selectivity = function
  | Genbase.Query.Q1_regression | Genbase.Query.Q4_svd -> sel_func
  | Genbase.Query.Q2_covariance -> sel_disease
  | Genbase.Query.Q3_biclustering -> sel_q3
  | Genbase.Query.Q5_statistics -> sel_sample
  | Genbase.Query.Q6_overlap -> 1.0

(* Modelled throughputs: dense kernel flops and DM cell scans per
   second. Absolute calibration matters less than the ratios between
   queries and sizes — the scheduler and the simulation only compare
   estimates against each other. *)
let flop_rate = 2e9
let cell_rate = 5e8

let analytics_flops ~genes ~patients q =
  let p = float_of_int patients and g = float_of_int genes in
  match q with
  | Genbase.Query.Q1_regression ->
    (* QR least squares on the func-selected columns. *)
    let gs = g *. sel_func in
    2. *. p *. gs *. gs
  | Genbase.Query.Q2_covariance ->
    (* A^T A over the disease cohort plus the pair scan. *)
    let ps = Float.max 2. (p *. sel_disease) in
    (2. *. ps *. g *. g) +. (g *. g)
  | Genbase.Query.Q3_biclustering ->
    (* Iterative residue sweeps over the age/gender cohort. *)
    let ps = Float.max 2. (p *. sel_q3) in
    60. *. 8. *. ps *. g
  | Genbase.Query.Q4_svd ->
    (* Lanczos sweeps: ~3k matvecs plus reorthogonalization. *)
    let gs = g *. sel_func in
    let iters = 150. in
    iters *. ((2. *. p *. gs) +. (iters *. gs))
  | Genbase.Query.Q5_statistics ->
    (* Sampled mean scores plus the per-term rank statistics. *)
    let ps = Float.max 1. (p *. sel_sample) in
    (ps *. g) +. (30. *. g)
  | Genbase.Query.Q6_overlap ->
    (* Sort-merge interval sweep: the generator emits 4 variants per
       gene, the planner expects ~3/2 output pairs per left interval. *)
    let nv = 4. *. g and ng = g in
    let n = Float.max 2. (nv +. ng) in
    (n *. Float.log2 n) +. (4. *. 1.5 *. nv)

let dm_cells ~genes ~patients q =
  match q with
  | Genbase.Query.Q6_overlap ->
    (* Only the two narrow interval tables are scanned: (4g + g) rows of
       3 integer columns each — the microarray never moves. *)
    15. *. float_of_int genes
  | _ -> float_of_int patients *. float_of_int genes

(* Engines differ by a coarse speed class (the shape Figure 1 sweeps),
   keyed on the engine records' own names so that renaming an engine
   cannot silently drop its class; unknown engines serve at the
   reference rate. *)
let speed_classes =
  List.map
    (fun ((e : Genbase.Engine.t), factor) -> (e.Genbase.Engine.name, factor))
    [
      (Genbase.Engine_r.engine, 1.0);
      (Genbase.Engine_sql.postgres_r, 1.6);
      (Genbase.Engine_madlib.engine, 1.3);
      (Genbase.Engine_sql.colstore_r, 0.9);
      (Genbase.Engine_sql.colstore_udf, 0.7);
      (Genbase.Engine_scidb.engine, 0.8);
      (Genbase.Engine_scidb.phi, 0.5);
      (Genbase.Engine_hadoop.engine, 2.5);
    ]

let engine_factor name =
  Option.value ~default:1.0 (List.assoc_opt name speed_classes)

let service_s ?(engine = "") ~genes ~patients q =
  let flops = analytics_flops ~genes ~patients q in
  let cells = dm_cells ~genes ~patients q in
  engine_factor engine *. ((flops /. flop_rate) +. (cells /. cell_rate))

(* Peak working set: the selected sub-matrix is copied/centered/
   factorized a handful of times, plus a fixed overhead for derived
   stores — the same shape as the harness's per-cell reservation. *)
let bytes ~genes ~patients q =
  let sel = selectivity q in
  let cells =
    match q with
    | Genbase.Query.Q1_regression | Genbase.Query.Q4_svd ->
      float_of_int patients *. (float_of_int genes *. sel)
    | Genbase.Query.Q2_covariance ->
      (float_of_int patients *. sel *. float_of_int genes)
      +. (float_of_int genes *. float_of_int genes)
    | Genbase.Query.Q3_biclustering | Genbase.Query.Q5_statistics ->
      float_of_int patients *. sel *. float_of_int genes
    | Genbase.Query.Q6_overlap ->
      (* Interval arrays (4g variants + g genes) plus ~6g output pairs;
         the patient-by-gene matrix is never touched. *)
      11. *. float_of_int genes
  in
  (int_of_float (8. *. 4. *. cells)) + (16 * 1024 * 1024)
