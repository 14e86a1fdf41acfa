module Mr = Gb_mapreduce.Mr
module Hive = Gb_mapreduce.Hive
module Mahout = Gb_mapreduce.Mahout

let field line i =
  match List.nth_opt (String.split_on_char ',' line) i with
  | Some f -> f
  | None -> failwith ("Hadoop: short record " ^ line)

let dense_index ids =
  let tbl = Hashtbl.create (Array.length ids) in
  Array.iteri (fun k id -> Hashtbl.add tbl id k) ids;
  tbl

(* Renumber one id field of a joined table to dense indices (a map-only
   job with the dictionary shipped via distributed cache). *)
let to_dense_triples mr table ~id_field ~other_field ~value_field ~index
    ~dense_first =
  Mr.map_only mr ~name:"renumber"
    ~mapper:(fun line ->
      let f = Array.of_list (String.split_on_char ',' line) in
      let dense = Hashtbl.find index (int_of_string f.(id_field)) in
      let other = f.(other_field) and v = f.(value_field) in
      if dense_first then [ Printf.sprintf "%d,%s,%s" dense other v ]
      else [ Printf.sprintf "%s,%d,%s" other dense v ])
    table

let run ?fault ~nodes ds query ~(params : Query.params) ~timeout_s =
  let dl = Gb_util.Deadline.start ~seconds:(2. *. timeout_s) in
  let mr = Mr.create ~nodes () in
  Mr.set_deadline mr timeout_s;
  Option.iter (Mr.set_fault_plan mr) fault;
  let hdb = Dataset.load_hadoop_db ds in
  let phase name f =
    let t0 = Mr.elapsed mr in
    let gc = Gb_obs.Profile.start () in
    let r = f () in
    Gb_util.Deadline.check dl;
    let t1 = Mr.elapsed mr in
    Gb_obs.Obs.Span.emit ~cat:"phase"
      ~attrs:(Gb_obs.Profile.delta_attrs gc)
      ~name ~t0 ~t1 ();
    (r, t1 -. t0)
  in
  let n_patients = Array.length ds.Gb_datagen.Generate.patients in
  let n_genes = Array.length ds.Gb_datagen.Generate.genes in
  let select_genes_and_join () =
    let sel =
      Hive.select mr ~name:"sel-genes"
        (fun f -> int_of_string f.(4) < params.func_threshold)
        hdb.Dataset.genes_h
    in
    let keys = Hive.project mr ~name:"gene-keys" [ 0 ] sel in
    let gene_ids =
      List.map int_of_string keys |> List.sort compare |> Array.of_list
    in
    let joined =
      Hive.join mr ~name:"micro-genes" ~left_key:0 ~right_key:0
        hdb.Dataset.microarray_h keys
    in
    (* joined fields: gene_id, patient_id, value *)
    let idx = dense_index gene_ids in
    let triples =
      to_dense_triples mr joined ~id_field:0 ~other_field:1 ~value_field:2
        ~index:idx ~dense_first:false
    in
    (triples, gene_ids)
  in
  match query with
  | Query.Q1_regression ->
    let (triples, gene_ids, y), dm =
      phase "dm" (fun () ->
          let triples, gene_ids = select_genes_and_join () in
          let resp =
            Hive.project mr ~name:"responses" [ 0; 5 ] hdb.Dataset.patients_h
          in
          let y = Array.make n_patients 0. in
          List.iter
            (fun line ->
              y.(int_of_string (field line 0)) <- float_of_string (field line 1))
            resp;
          (triples, gene_ids, y))
    in
    let payload, analytics =
      phase "analytics" (fun () ->
          let beta =
            Mahout.regression mr ~rows:n_patients ~cols:(Array.length gene_ids)
              triples y
          in
          Engine.Regression
            {
              intercept = beta.(0);
              coefficients = Array.sub beta 1 (Array.length beta - 1);
              r2 = Float.nan;
            })
    in
    Engine.completed { dm; analytics } ~recovery:(Qcommon.mr_recovery mr)
      payload
  | Query.Q2_covariance ->
    let (triples, n_sel), dm0 =
      phase "dm" (fun () ->
          let sel =
            Hive.select mr ~name:"sel-patients"
              (fun f -> int_of_string f.(4) = params.disease_id)
              hdb.Dataset.patients_h
          in
          let keys = Hive.project mr ~name:"patient-keys" [ 0 ] sel in
          let pat_ids =
            List.map int_of_string keys |> List.sort compare |> Array.of_list
          in
          let joined =
            Hive.join mr ~name:"micro-patients" ~left_key:1 ~right_key:0
              hdb.Dataset.microarray_h keys
          in
          let idx = dense_index pat_ids in
          let triples =
            to_dense_triples mr joined ~id_field:1 ~other_field:0
              ~value_field:2 ~index:idx ~dense_first:true
          in
          (triples, Array.length pat_ids))
    in
    let payload, analytics =
      phase "analytics" (fun () ->
          let cov =
            Mahout.covariance mr ~rows:n_sel ~cols:n_genes triples
          in
          let c = Mahout.to_mat ~rows:n_genes ~cols:n_genes cov in
          let pairs =
            Gb_linalg.Covariance.top_fraction c params.cov_top_fraction
          in
          Engine.Cov_pairs { n_genes; top_pairs = pairs })
    in
    let pairs =
      match payload with Engine.Cov_pairs p -> p.top_pairs | _ -> []
    in
    let _joined, dm1 =
      phase "dm:join_metadata" (fun () ->
          let pair_table =
            List.map (fun (a, b, v) -> Printf.sprintf "%d,%d,%.12g" a b v) pairs
          in
          Hive.join mr ~name:"pairs-meta" ~left_key:0 ~right_key:0 pair_table
            hdb.Dataset.genes_h)
    in
    Engine.completed { dm = dm0 +. dm1; analytics }
      ~recovery:(Qcommon.mr_recovery mr) payload
  | Query.Q3_biclustering | Query.Q5_statistics -> Engine.Unsupported
  | Query.Q4_svd ->
    let (triples, gene_ids), dm =
      phase "dm" (fun () -> select_genes_and_join ())
    in
    let payload, analytics =
      phase "analytics" (fun () ->
          let eigs =
            Mahout.lanczos_eigs mr ~rows:n_patients
              ~cols:(Array.length gene_ids)
              ~k:(min params.svd_k (Array.length gene_ids))
              triples
          in
          Engine.Singular_values
            (Array.map (fun e -> sqrt (Float.max 0. e)) eigs))
    in
    Engine.completed { dm; analytics } ~recovery:(Qcommon.mr_recovery mr)
      payload
  | Query.Q6_overlap ->
    (* Shuffle-by-genomic-bin: the mapper replicates each interval (from
       either table, tagged V/G) to every fixed-width bin it touches;
       each reducer sweeps its bin locally and counts a pair only if the
       bin owns max(starts), so replicated intervals never double-count.
       The reducer's output is re-sorted canonically at the end, making
       the payload bitwise identical to the single-node plans. *)
    let module Ranges = Gb_util.Ranges in
    let bin_width = Ranges.default_bin_width in
    let tagged, dm0 =
      phase "dm" (fun () ->
          let vs =
            List.map (fun l -> "V," ^ l) hdb.Dataset.variants_h
          in
          let gs =
            Hive.project mr ~name:"gene-coords" [ 0; 2; 3 ] hdb.Dataset.genes_h
            |> List.map (fun l -> "G," ^ l)
          in
          vs @ gs)
    in
    let lines, dm1 =
      phase "analytics" (fun () ->
          Mr.run_job mr ~name:"overlap-bins"
            ~mapper:(fun line ->
              let f = Array.of_list (String.split_on_char ',' line) in
              let iv =
                Ranges.of_start_len
                  ~id:(int_of_string f.(1))
                  ~start:(int_of_string f.(2))
                  ~len:(int_of_string f.(3))
              in
              List.map
                (fun bin ->
                  ( string_of_int bin,
                    Printf.sprintf "%s,%d,%d,%d" f.(0) iv.Ranges.id
                      iv.Ranges.lo iv.Ranges.hi ))
                (Ranges.bins_of ~bin_width iv))
            ~reducer:(fun key values ->
              let bin = int_of_string key in
              let side tag =
                List.filter_map
                  (fun v ->
                    match String.split_on_char ',' v with
                    | [ t; id; lo; hi ] when t = tag ->
                      Some
                        {
                          Ranges.id = int_of_string id;
                          lo = int_of_string lo;
                          hi = int_of_string hi;
                        }
                    | _ -> None)
                  values
                |> Array.of_list
              in
              let vs = side "V" and gs = side "G" in
              Ranges.sweep_join ~min_overlap:params.min_overlap_bp vs gs
              |> List.filter (fun (v, g, _) ->
                     let find arr id =
                       let found = ref None in
                       Array.iter
                         (fun (iv : Ranges.iv) ->
                           if iv.id = id then found := Some iv)
                         arr;
                       Option.get !found
                     in
                     Ranges.owns_pair ~bin_width ~bin (find vs v) (find gs g))
              |> List.map (fun (v, g, len) ->
                     Printf.sprintf "%d,%d,%d" v g len))
            tagged)
    in
    let payload =
      Qcommon.overlaps_of
        ~n_variants:(Array.length ds.Gb_datagen.Generate.variants)
        ~n_genes
        (List.map
           (fun line ->
             match String.split_on_char ',' line with
             | [ v; g; len ] ->
               (int_of_string v, int_of_string g, int_of_string len)
             | _ -> failwith ("Hadoop: bad overlap record " ^ line))
           lines)
    in
    Engine.completed { dm = dm0; analytics = dm1 }
      ~recovery:(Qcommon.mr_recovery mr) payload

let supports = function
  | Query.Q1_regression | Query.Q2_covariance | Query.Q4_svd
  | Query.Q6_overlap ->
    true
  | Query.Q3_biclustering | Query.Q5_statistics -> false

let engine =
  {
    Engine.name = "Hadoop";
    kind = `Single_node;
    supports;
    prepare = (fun ds q ~params ~timeout_s -> run ~nodes:1 ds q ~params ~timeout_s);
  }

let engine_multinode ?fault ~nodes () =
  {
    Engine.name = "Hadoop";
    kind = `Multi_node nodes;
    supports;
    prepare = (fun ds q ~params ~timeout_s -> run ?fault ~nodes ds q ~params ~timeout_s);
  }
