(* Weak scaling: the experiment the paper announces at the end of Section 5
   ("in reality, the genomics data should scale in size with the number of
   nodes in the cluster ('weak scaling') … we expect benchmark performance
   to scale on such runs").

   The patient dimension grows with the node count, so per-node data stays
   constant; a system that scales well should hold its query time roughly
   flat as nodes are added. *)

let base_patients = 400
let genes = 600

let run_query engine_of ds nodes q =
  match
    Genbase.Engine.run (engine_of nodes) ds q ~timeout_s:300. ()
  with
  | Genbase.Engine.Completed (t, _) -> Some (Genbase.Engine.total t)
  | _ -> None

let run () =
  print_endline
    "Weak scaling: per-node data held constant (patients = 400 x nodes)";
  let node_counts = [ 1; 2; 4 ] in
  let datasets =
    List.map
      (fun n ->
        ( n,
          Genbase.Dataset.generate
            (Gb_datagen.Spec.custom ~genes ~patients:(base_patients * n)) ))
      node_counts
  in
  let systems =
    [
      ("pbdR", fun nodes -> Genbase.Engine_multinode.pbdr ~nodes ());
      ("SciDB", fun nodes -> Genbase.Engine_multinode.scidb ~nodes ());
      ( "Column store + pbdR",
        fun nodes -> Genbase.Engine_multinode.colstore_pbdr ~nodes () );
    ]
  in
  List.concat_map
    (fun q ->
      let measured =
        List.map
          (fun (name, engine_of) ->
            let cells =
              List.map
                (fun (nodes, ds) -> (nodes, run_query engine_of ds nodes q))
                datasets
            in
            let row =
              name
              :: List.map
                   (fun (_, t) ->
                     match t with
                     | Some t -> Gb_util.Render.seconds t
                     | None -> "-")
                   cells
            in
            let recs =
              List.filter_map
                (fun (nodes, t) ->
                  Option.bind t (fun t ->
                      Gb_obs.Bench_json.make
                        ~name:(Printf.sprintf "weak-n%d" nodes)
                        ~engine:name
                        ~query:(Genbase.Query.name q)
                        ~unit_:"s" [ t ]))
                cells
            in
            (row, recs))
          systems
      in
      Printf.printf "Weak scaling, %s query\n" (Genbase.Query.title q);
      print_endline
        (Gb_util.Render.table
           ~headers:
             ("System"
             :: List.map
                  (fun n ->
                    Printf.sprintf "%d node%s (%d patients)" n
                      (if n = 1 then "" else "s")
                      (base_patients * n))
                  node_counts)
           ~rows:(List.map fst measured));
      List.concat_map snd measured)
    [ Genbase.Query.Q1_regression; Genbase.Query.Q2_covariance;
      Genbase.Query.Q4_svd ]
