module Engine = Genbase.Engine
module Query = Genbase.Query
module Harness = Genbase.Harness
module Dataset = Genbase.Dataset
module Spec = Gb_datagen.Spec
module Prng = Gb_util.Prng
module Render = Gb_util.Render

type cell = {
  engine : string;
  nodes : int;
  query : Query.t;
  seed : int64;
  fuzzed : bool;
  payload : string;  (* Engine.payload_kind of the tested outcome, or "" *)
  classification : Oracle.classification;
}

type config = {
  spec : Spec.t;
  seeds : int64 list;
  timeout_s : float;
  fuzz : bool;
  progress : (string -> unit) option;
}

(* The payload kind of the engine-under-test's outcome, for the CSV. *)
let payload_of = function
  | Engine.Completed (_, p) | Engine.Degraded (_, _, p) ->
    Engine.payload_kind p
  | Engine.Timed_out | Engine.Out_of_memory | Engine.Errored _
  | Engine.Unsupported ->
    ""

let seeds_from ~base n =
  let g = Prng.create base in
  base
  :: List.init (max 0 (n - 1)) (fun _ ->
         Int64.logand (Prng.next_int64 g) 0x7FFF_FFFF_FFFF_FFFFL)

let default_config =
  {
    spec = Spec.of_size Spec.Small;
    seeds = seeds_from ~base:0x6E0BA5EL 3;
    timeout_s = 60.;
    fuzz = true;
    progress = None;
  }

let quick_config = { default_config with timeout_s = 30. }

let note config fmt =
  Printf.ksprintf
    (fun s -> match config.progress with None -> () | Some f -> f s)
    fmt

(* Each seed's run: the base (first) seed keeps the paper's default
   parameters; later seeds fuzz them, so the grid sweeps parameter space
   as well as data. *)
let seed_runs config =
  List.mapi
    (fun i seed ->
      let fuzzed = config.fuzz && i > 0 in
      let params =
        if fuzzed then Genqc.params_of_seed seed else Query.default_params
      in
      let ds = Dataset.generate ~seed config.spec in
      (seed, fuzzed, params, ds))
    config.seeds

let engines =
  List.filter
    (fun e -> e.Engine.name <> Oracle.reference.Engine.name)
    Harness.single_node_engines
  @ [ Genbase.Engine_scidb.phi ]

(* Unsupported is only conforming where the paper's support matrix says
   so; anywhere else it means the engine silently dropped a query. *)
let police_unsupported ~engine ~query = function
  | Oracle.Unsupported_cell when not (Oracle.whitelisted_unsupported ~engine query)
    ->
    Oracle.Mismatch
      { divergence = infinity; detail = "unexpected Unsupported outcome" }
  | c -> c

let classify ~engine ~query ~params ~reference outcome =
  Oracle.classify
    ~tol:(Oracle.tolerance_for ~engine query)
    ~p_threshold:params.Query.p_threshold ~reference outcome
  |> police_unsupported ~engine ~query

(* Vanilla R's outcome for every query on one seed's data. *)
let reference_outcomes config ds params =
  List.map
    (fun q ->
      (q, Engine.run Oracle.reference ds q ~params ~timeout_s:config.timeout_s ()))
    Query.all

let differential config =
  List.concat_map
    (fun (seed, fuzzed, params, ds) ->
      let reference = reference_outcomes config ds params in
      List.concat_map
        (fun e ->
          List.map
            (fun query ->
              let outcome =
                Engine.run e ds query ~params ~timeout_s:config.timeout_s ()
              in
              let classification =
                classify ~engine:e.Engine.name ~query ~params
                  ~reference:(List.assoc query reference) outcome
              in
              note config "seed %Ld | %s | %s: %s" seed (Query.name query)
                e.Engine.name
                (Oracle.describe classification);
              {
                engine = e.Engine.name;
                nodes = 1;
                query;
                seed;
                fuzzed;
                payload = payload_of outcome;
                classification;
              })
            Query.all)
        engines)
    (seed_runs config)

let chaos_conformance ~node_counts config =
  List.concat_map
    (fun (seed, fuzzed, params, ds) ->
      let oracle = reference_outcomes config ds params in
      List.concat_map
        (fun nodes ->
          let clean = Harness.multi_node_engines ~nodes in
          let armed = Harness.chaos_engines Harness.default_chaos ~nodes in
          let cell ~engine ~query outcome classification =
            note config "seed %Ld | n=%d | %s | %s: %s" seed nodes
              (Query.name query) engine
              (Oracle.describe classification);
            {
              engine;
              nodes;
              query;
              seed;
              fuzzed;
              payload = payload_of outcome;
              classification;
            }
          in
          (* SciDB + Xeon Phi has no fault plan: its fault-free answer is
             held to Vanilla R at each node count. *)
          let phi = Genbase.Engine_multinode.scidb_phi ~nodes in
          let phi_cell query =
            let outcome =
              Engine.run phi ds query ~params ~timeout_s:config.timeout_s ()
            in
            cell ~engine:phi.Engine.name ~query outcome
              (classify ~engine:phi.Engine.name ~query ~params
                 ~reference:(List.assoc query oracle) outcome)
          in
          let armed_cells =
            List.concat_map
              (fun (e_clean, e_armed) ->
                let engine = e_clean.Engine.name in
                assert (engine = e_armed.Engine.name);
                List.map
                  (fun query ->
                    let reference =
                      Engine.run e_clean ds query ~params
                        ~timeout_s:config.timeout_s ()
                    in
                    let outcome =
                      Engine.run e_armed ds query ~params
                        ~timeout_s:config.timeout_s ()
                    in
                    (* A faulted answer is held to the fault-free one, which
                       is held to Vanilla R: a multi-node engine that is
                       consistently wrong does not conform. *)
                    let classification =
                      match
                        classify ~engine ~query ~params
                          ~reference:(List.assoc query oracle) reference
                      with
                      | Oracle.Mismatch { divergence; detail } ->
                        Oracle.Mismatch
                          { divergence; detail = "fault-free run vs reference: " ^ detail }
                      | _ -> classify ~engine ~query ~params ~reference outcome
                    in
                    cell ~engine ~query outcome classification)
                  Query.all)
              (List.combine clean armed)
          in
          armed_cells @ List.map phi_cell Query.all)
        node_counts)
    (seed_runs config)

(* --- rendering --- *)

let groups cells =
  List.fold_left
    (fun acc c ->
      let key = (c.seed, c.nodes) in
      if List.mem key acc then acc else acc @ [ key ])
    [] cells

let engines_of cells =
  List.fold_left
    (fun acc c -> if List.mem c.engine acc then acc else acc @ [ c.engine ])
    [] cells

let render cells =
  groups cells
  |> List.map (fun (seed, nodes) ->
         let group =
           List.filter (fun c -> c.seed = seed && c.nodes = nodes) cells
         in
         let fuzzed = List.exists (fun c -> c.fuzzed) group in
         let rows =
           List.map
             (fun engine ->
               engine
               :: List.map
                    (fun q ->
                      match
                        List.find_opt
                          (fun c -> c.engine = engine && c.query = q)
                          group
                      with
                      | None -> "-"
                      | Some c -> Oracle.label c.classification)
                    Query.all)
             (engines_of group)
         in
         Printf.sprintf "Conformance matrix (seed %Ld%s%s)\n%s" seed
           (if nodes > 1 then Printf.sprintf ", %d nodes" nodes else "")
           (if fuzzed then ", fuzzed params" else "")
           (Render.table
              ~headers:("Engine" :: List.map Query.name Query.all)
              ~rows))
  |> String.concat "\n"

let status_name = function
  | Oracle.Match _ -> "match"
  | Oracle.Degraded_match _ -> "degraded-match"
  | Oracle.Mismatch _ -> "mismatch"
  | Oracle.Unsupported_cell -> "unsupported"
  | Oracle.Engine_failed _ -> "engine-failed"
  | Oracle.Reference_failed _ -> "reference-failed"
  | Oracle.Both_failed _ -> "both-failed"

let mismatches cells =
  List.filter (fun c -> Oracle.is_mismatch c.classification) cells

let conforming cells = mismatches cells = []

let summary cells =
  let count name =
    List.length
      (List.filter (fun c -> status_name c.classification = name) cells)
  in
  let max_div =
    List.fold_left
      (fun m c ->
        match c.classification with
        | Oracle.Match { divergence } | Oracle.Degraded_match { divergence; _ }
          ->
          Float.max m divergence
        | _ -> m)
      0. cells
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "%d cells: %d match, %d degraded-match, %d mismatch, %d unsupported, \
        %d engine-failed, %d reference-failed, %d both-failed\n\
        max divergence among matches: %.3e\n"
       (List.length cells) (count "match")
       (count "degraded-match")
       (count "mismatch") (count "unsupported") (count "engine-failed")
       (count "reference-failed") (count "both-failed") max_div);
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "  MISMATCH %s / %s / seed %Ld%s: %s\n" c.engine
           (Query.name c.query) c.seed
           (if c.nodes > 1 then Printf.sprintf " / %d nodes" c.nodes else "")
           (Oracle.describe c.classification)))
    (mismatches cells);
  Buffer.contents buf

let csv_escape s =
  String.map (function ',' -> ';' | '\n' -> ' ' | c -> c) s

let to_csv cells =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "engine,nodes,query,seed,fuzzed,payload,status,divergence,detail\n";
  List.iter
    (fun c ->
      let divergence, detail =
        match c.classification with
        | Oracle.Match { divergence } -> (Printf.sprintf "%.9e" divergence, "")
        (* Only the counts the fault plan fixes: wasted seconds and
           speculative restarts come from measured wall time. *)
        | Oracle.Degraded_match { divergence; recovery = r } ->
          ( Printf.sprintf "%.9e" divergence,
            Printf.sprintf "retries=%d recovered=%d" r.Engine.retries
              r.Engine.recovered_nodes )
        | Oracle.Mismatch { divergence; detail } ->
          (Printf.sprintf "%.9e" divergence, detail)
        | Oracle.Unsupported_cell -> ("", "")
        | Oracle.Engine_failed s | Oracle.Reference_failed s
        | Oracle.Both_failed s ->
          ("", s)
      in
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%s,%Ld,%b,%s,%s,%s,%s\n" (csv_escape c.engine)
           c.nodes (Query.name c.query) c.seed c.fuzzed c.payload
           (status_name c.classification)
           divergence (csv_escape detail)))
    cells;
  Buffer.contents buf
