(* Serving-layer benchmark section: run every load-generator scenario
   against the simulated server and report tail latencies, goodput and
   the shed/timeout/breaker breakdown as schema-v1 records.

   The simulation is deterministic (one seed fixes arrivals, mix, faults
   and retries), so the committed baseline matches bit-for-bit and the
   bench-diff gate for this section is exact rather than noise-bounded. *)

module Loadgen = Gb_serve.Loadgen

let run ~quick =
  List.concat_map
    (fun (sc : Loadgen.scenario) ->
      let cfg =
        {
          (Loadgen.default_config sc) with
          Loadgen.duration = (if quick then 30. else 60.);
        }
      in
      let { Loadgen.summary; _ } = Loadgen.run cfg in
      Format.printf "%a@.@." Loadgen.pp_summary summary;
      Loadgen.bench_records summary)
    Loadgen.scenarios
