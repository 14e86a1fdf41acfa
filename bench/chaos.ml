(* Chaos scenario: the multi-node grid of Figures 3/4 rerun under the
   default deterministic fault plan, summarized as per-engine availability
   and recovery work. Fault placements derive from the chaos seed, not the
   data seed, so the same data is measured with and without faults. *)

module H = Genbase.Harness

(* The streaming executor joins the availability table as a single-node
   row, on the largest configured size. *)
let stream_cells config =
  let size = List.nth config.H.sizes (List.length config.H.sizes - 1) in
  let ds =
    Genbase.Dataset.generate ~seed:config.H.seed
      (Gb_datagen.Spec.of_size size)
  in
  Gb_stream.Exec.chaos_cells H.default_chaos ds ~timeout_s:config.H.timeout_s

let run config =
  let cells = H.chaos_cells config @ stream_cells config in
  print_endline (H.availability cells);
  H.bench_records cells @ H.availability_records cells
