(* Multi-node scaling (the paper's Section 4.4): run the regression query
   on the simulated cluster engines at 1, 2 and 4 nodes and print the
   speedups — sub-linear everywhere, with pbdR scaling best, as in the
   paper.

   dune exec examples/cluster_scaling.exe *)

let () =
  let ds = Genbase.Dataset.of_size Gb_datagen.Spec.Large in
  let node_counts = [ 1; 2; 4 ] in
  let engines nodes =
    [
      Genbase.Engine_multinode.pbdr ~nodes ();
      Genbase.Engine_multinode.scidb ~nodes ();
      Genbase.Engine_multinode.colstore_pbdr ~nodes ();
    ]
  in
  Printf.printf "%-22s %8s %8s %8s %s\n" "engine" "1 node" "2 nodes" "4 nodes"
    "speedup(4)";
  List.iter
    (fun idx ->
      let name = ref "" in
      let times =
        List.map
          (fun nodes ->
            let e = List.nth (engines nodes) idx in
            name := e.Genbase.Engine.name;
            match
              Genbase.Engine.run e ds Genbase.Query.Q1_regression
                ~timeout_s:120. ()
            with
            | Genbase.Engine.Completed (t, _) -> Genbase.Engine.total t
            | _ -> nan)
          node_counts
      in
      match times with
      | [ t1; t2; t4 ] ->
        Printf.printf "%-22s %7.3fs %7.3fs %7.3fs %9.2fx\n" !name t1 t2 t4
          (t1 /. t4)
      | _ -> ())
    [ 0; 1; 2 ]
