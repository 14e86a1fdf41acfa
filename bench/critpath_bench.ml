(* Critical-path blame benchmark section: run the overload and chaos
   scenarios with the flight recorder armed and the in-memory collector
   on, then decompose every request's end-to-end latency into blame
   segments with Gb_obs.Critpath.

   Recorder decisions (kept traces, dump instants) and the blame
   decomposition are driven entirely by the simulated clock in event
   order and consume no PRNG draws, so every record here is a pure
   function of (scenario, seed): the committed BENCH_critpath.json
   baseline matches bit-for-bit and the bench-diff gate is exact. The
   blame-sum identity (segments sum exactly to e2e) is asserted on
   every request; a violation fails the section. *)

module Loadgen = Gb_serve.Loadgen
module Obs = Gb_obs.Obs
module Rec = Gb_obs.Recorder
module Cp = Gb_obs.Critpath
module B = Gb_obs.Bench_json

let record ~name ~size ?(unit_ = "count") ?(counters = []) v =
  match B.make ~name ~size ~unit_ ~better:B.Lower ~counters [ v ] with
  | Some r -> r
  | None -> failwith ("critpath bench: unrecordable sample for " ^ name)

let scenario_records ~quick name =
  match Loadgen.find_scenario name with
  | Error e -> failwith e
  | Ok sc ->
    let cfg =
      {
        (Loadgen.default_config sc) with
        Loadgen.duration = (if quick then 30. else 60.);
      }
    in
    (* Collector for the full capture Critpath analyzes; recorder for
       the tail-sampled dump counters. Reset both so records depend only
       on (scenario, seed). *)
    Obs.set_enabled true;
    Obs.reset ();
    Rec.start ();
    let r = Loadgen.run cfg in
    Rec.stop ();
    let events = Obs.events () in
    Obs.set_enabled false;
    let dumps = Rec.dumps () in
    let st = Rec.stats () in
    let requests = Cp.requests events in
    let checked =
      match Cp.check requests with
      | Ok n -> n
      | Error e -> failwith ("critpath bench: blame-sum identity broken: " ^ e)
    in
    let s = r.Loadgen.summary in
    let size = s.Loadgen.scenario ^ "/" ^ s.Loadgen.size in
    Format.printf "%a@." Loadgen.pp_summary s;
    Format.printf
      "critpath %-9s requests %5d (identity checked)  dumps %d (%d \
       suppressed)  kept %d tail + %d failed + %d sampled@."
      name checked st.Rec.s_dumps st.Rec.s_suppressed st.Rec.s_tail_kept
      st.Rec.s_fail_kept st.Rec.s_fast_sampled;
    let profile = Cp.profile requests in
    print_string (Cp.render_profile profile);
    Format.printf "@.";
    let ok_requests = List.length (List.filter (fun r -> r.Cp.r_ok) requests) in
    let first_dump_s =
      match dumps with [] -> 0. | d :: _ -> d.Rec.d_at
    in
    let req_rec =
      record
        ~name:("critpath_" ^ name ^ "_requests")
        ~size
        ~counters:
          [ ("ok", float_of_int ok_requests);
            ("attempts", float_of_int s.Loadgen.attempts);
          ]
        (float_of_int checked)
    in
    let dump_rec =
      record
        ~name:("critpath_" ^ name ^ "_dumps")
        ~size
        ~counters:
          [ ("suppressed", float_of_int st.Rec.s_suppressed);
            ("tail_kept", float_of_int st.Rec.s_tail_kept);
            ("fail_kept", float_of_int st.Rec.s_fail_kept);
            ("fast_sampled", float_of_int st.Rec.s_fast_sampled);
            ("ring_dropped", float_of_int st.Rec.s_ring_dropped);
            ("first_dump_s", first_dump_s);
          ]
        (float_of_int st.Rec.s_dumps)
    in
    let blame_recs =
      List.map
        (fun (p : Cp.profile_entry) ->
          record
            ~name:("critpath_" ^ name ^ "_blame_" ^ p.Cp.p_label)
            ~size ~unit_:"s"
            ~counters:
              [ ("requests", float_of_int p.Cp.p_requests);
                ("mean_share", p.Cp.p_mean_share);
                ("p99_share", p.Cp.p_p99_share);
              ]
            p.Cp.p_total)
        profile
    in
    req_rec :: dump_rec :: blame_recs

let run ~quick =
  List.concat_map (scenario_records ~quick) [ "overload"; "chaos" ]
