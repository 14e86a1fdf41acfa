(* SLO burn-rate benchmark section: run the overload and chaos scenarios
   through the load generator and record, per objective,
   the alert fire count, first-fire instant and resolve count.

   The monitor is driven by the simulated clock and consumes no PRNG
   draws, so every number here is a pure function of
   (scenario, seed): the committed BENCH_slo.json baseline matches
   bit-for-bit and the bench-diff gate is exact rather than
   noise-bounded. *)

module Loadgen = Gb_serve.Loadgen
module Slo = Gb_obs.Slo

let run ~quick =
  List.concat_map
    (fun name ->
      match Loadgen.find_scenario name with
      | Error e -> failwith e
      | Ok sc ->
        let cfg =
          {
            (Loadgen.default_config sc) with
            Loadgen.duration = (if quick then 30. else 60.);
          }
        in
        let r = Loadgen.run cfg in
        Format.printf "%a@." Loadgen.pp_summary r.Loadgen.summary;
        List.iter
          (fun (name, burn_long, burn_short, events, firing) ->
            Format.printf
              "slo %-28s burn_long %6.2f  burn_short %6.2f  events %6d  %s@."
              name burn_long burn_short events
              (if firing then "FIRING" else "ok"))
          (Slo.summary r.Loadgen.monitor);
        let alerts = Slo.alerts r.Loadgen.monitor in
        Format.printf "slo alerts: %d (%d fires)@.@." (List.length alerts)
          (List.length (List.filter (fun a -> a.Slo.a_firing) alerts));
        Loadgen.slo_records r)
    [ "overload"; "chaos" ]
