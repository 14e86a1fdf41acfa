(* The streaming subsystem: deterministic ingest logs, incremental
   maintainers vs one-shot recompute (the conformance oracle across
   several seeds), the watermark/checkpoint crash-recovery protocol, the
   Q3/Q4 staleness fallback, and the ingest telemetry gauges. *)

module G = Gb_datagen.Generate
module Spec = Gb_datagen.Spec
module Query = Genbase.Query
module Engine = Genbase.Engine
module Fault = Gb_fault.Fault
module Oracle = Gb_conformance.Oracle
module Compare = Gb_conformance.Compare
module Transform = Gb_conformance.Transform
module Live = Gb_stream.Live
module Ingest = Gb_stream.Ingest
module Exec = Gb_stream.Exec
module Check = Gb_stream.Check
module Tele = Gb_obs.Telemetry

let spec = Spec.custom ~genes:60 ~patients:160
let seeds = [ 0x5EEDL; 1L; 0xBEEFL ]
let all_queries = Query.all

let test_log_deterministic () =
  let ds = G.generate ~seed:0x5EEDL spec in
  let l1 = Ingest.generate ds and l2 = Ingest.generate ds in
  Alcotest.(check bool) "same log twice" true (l1 = l2);
  let other = Ingest.generate ~seed:77L ds in
  Alcotest.(check bool) "explicit seed changes the log" false (l1 = other);
  let ds2 = G.generate ~seed:1L spec in
  Alcotest.(check bool)
    "different dataset seed, different stream seed" false
    (Int64.equal ds.G.stream_seed ds2.G.stream_seed)

(* The PR-7 split discipline: the stream seed is the generator root's
   LAST split, so it perturbs nothing — the dataset digest for the
   pinned seed must equal the golden recorded before lib/stream existed
   (the per-query payload pins live in test_conformance). *)
let test_split_leaves_base_unchanged () =
  let ds = G.generate ~seed:0x5EEDL spec in
  Alcotest.(check string)
    "dataset digest matches the pre-stream golden"
    "9a964c724380924915d339638202d796"
    (Transform.dataset_fingerprint ds);
  let before = Transform.dataset_fingerprint ds in
  let _log = Ingest.generate ds in
  Alcotest.(check string) "generating a log mutates nothing" before
    (Transform.dataset_fingerprint ds)

let test_zero_event_snapshot () =
  let ds = G.generate ~seed:2L spec in
  let live = Live.of_dataset ds in
  Alcotest.(check string)
    "snapshot before any event has the base fingerprint"
    (Transform.dataset_fingerprint ds)
    (Transform.dataset_fingerprint (Live.snapshot live))

let test_materialize_shapes () =
  let ds = G.generate ~seed:3L spec in
  let profile = Ingest.profile ~batches:5 ~appends:7 ~updates:3 ~variants:2 () in
  let log = Ingest.generate ~profile ds in
  let final = Ingest.materialize ds log in
  Alcotest.(check int) "patients grew" (160 + (5 * 7))
    (Array.length final.G.patients);
  Alcotest.(check int) "variants grew"
    (Array.length ds.G.variants + (5 * 2))
    (Array.length final.G.variants);
  Alcotest.(check int) "spec tracks the live patient count" (160 + 35)
    final.G.spec.Spec.patients;
  Array.iteri
    (fun i (p : G.patient) ->
      if p.G.patient_id <> i then Alcotest.failf "patient id %d at %d" p.G.patient_id i)
    final.G.patients

(* Executor replay == one-shot materialization, and the executor's final
   snapshot is what the maintainers' answers are checked against. *)
let test_exec_matches_materialize () =
  let ds = G.generate ~seed:4L spec in
  let log = Ingest.generate ds in
  let exec = Exec.create ~queries:[] ds log in
  Exec.run exec;
  Alcotest.(check string) "exec == materialize"
    (Transform.dataset_fingerprint (Ingest.materialize ds log))
    (Transform.dataset_fingerprint (Exec.snapshot exec));
  Alcotest.(check int) "watermark at the tail"
    (Array.length log.Ingest.batches - 1)
    (Exec.watermark exec);
  Alcotest.(check int) "no lag" 0 (Exec.lag exec)

(* The tentpole acceptance check: incremental refresh equals one-shot
   recompute under the conformance oracle, across seeds — exact (zero
   divergence) for Q3/Q4/Q5/Q6, tolerance-profile for the Q1/Q2
   sketches. *)
let test_refresh_equals_recompute () =
  List.iter
    (fun seed ->
      let ds = G.generate ~seed spec in
      let log = Ingest.generate ds in
      let exec = Exec.create ~queries:all_queries ds log in
      Exec.run exec;
      List.iter
        (fun (q, cls) ->
          match cls with
          | Oracle.Match { divergence } -> (
            match q with
            | Query.Q1_regression | Query.Q2_covariance -> ()
            | _ ->
              if divergence <> 0.0 then
                Alcotest.failf "seed %Ld %s: expected exact, divergence %g"
                  seed (Query.name q) divergence)
          | other ->
            Alcotest.failf "seed %Ld %s: %s" seed (Query.name q)
              (Oracle.describe other))
        (Check.check_all exec all_queries))
    seeds

(* Bitwise refresh pins: after each of 40 batches on two Small seeds,
   the Q1, Q2 and Q5 answers are fingerprinted, and each golden is the
   digest of one query's 40 fingerprints in batch order. A maintainer
   that reorders a floating-point fold (say, adding appends to the Q1
   sketch before the batch's cell updates) changes these bits while
   still passing the tolerance-profile oracle above. *)
let test_refresh_goldens () =
  let queries = [ Query.Q1_regression; Query.Q2_covariance; Query.Q5_statistics ] in
  let goldens =
    [
      ( 1L,
        [ "3be20ff6f454eabc986f02f9ec5c8a1a"; "b59710c4e6e96e2c4c5cad1a2487fcc6";
          "72d8a9c7f985908148533b18026ebb7e" ] );
      ( 2L,
        [ "14ffa6a6ec40d20a119d6a4f4f4688f1"; "981efce9f0708d0395663183d824e2e5";
          "14531245a405dbb3aff58e03cad7b9a9" ] );
    ]
  in
  List.iter
    (fun (seed, expected) ->
      let ds = G.generate ~seed (Spec.of_size Spec.Small) in
      let log = Ingest.generate ~profile:(Ingest.profile ~batches:40 ()) ds in
      let exec = Exec.create ~queries ds log in
      let fps = List.map (fun _ -> Buffer.create 1280) queries in
      for _ = 1 to 40 do
        Exec.step exec;
        List.iter2
          (fun q b -> Buffer.add_string b (Compare.fingerprint (Exec.refresh exec q)))
          queries fps
      done;
      List.iter2
        (fun (q, b) golden ->
          Alcotest.(check string)
            (Printf.sprintf "seed %Ld %s after each batch" seed (Query.name q))
            golden
            (Digest.to_hex (Digest.string (Buffer.contents b))))
        (List.combine queries fps) expected)
    goldens

(* Mid-stream crashes: recovery restores the last checkpoint and replays;
   the final state and every exact answer are bit-identical to the clean
   run, and the conformance classification records the degradation. *)
let test_crash_replay_converges () =
  let ds = G.generate ~seed:0x5EEDL spec in
  let log = Ingest.generate ds in
  let fault =
    Fault.of_events
      [
        (* superstep 3 sits mid-interval (checkpoint at watermark 1), so
           recovery must actually replay; superstep 6 lands right on a
           checkpoint and replays nothing. *)
        Fault.Node_crash { node = 0; superstep = 3 };
        Fault.Node_crash { node = 0; superstep = 6 };
      ]
  in
  let clean = Exec.create ~checkpoint_every:2 ~queries:all_queries ds log in
  Exec.run clean;
  let faulty = Exec.create ~checkpoint_every:2 ~queries:all_queries ds log in
  Exec.run ~fault faulty;
  let c = Exec.counters faulty in
  Alcotest.(check int) "both crashes fired" 2 c.Exec.crashes;
  Alcotest.(check bool) "some batches replayed" true (c.Exec.replayed_batches >= 1);
  Alcotest.(check bool) "replay bounded by checkpoint interval" true
    (c.Exec.replayed_batches <= 2 * c.Exec.crashes);
  Alcotest.(check string) "live state converged"
    (Transform.dataset_fingerprint (Exec.snapshot clean))
    (Transform.dataset_fingerprint (Exec.snapshot faulty));
  List.iter
    (fun q ->
      Alcotest.(check string)
        (Printf.sprintf "%s answer bitwise equal after replay" (Query.name q))
        (Compare.fingerprint (Exec.refresh ~force:true clean q))
        (Compare.fingerprint (Exec.refresh ~force:true faulty q)))
    [ Query.Q5_statistics; Query.Q6_overlap ];
  List.iter
    (fun q ->
      match Check.classify faulty q with
      | Oracle.Degraded_match { recovery; _ } ->
        Alcotest.(check bool) "recovery recorded" true
          (recovery.Engine.recovered_nodes = 2 && recovery.Engine.retries >= 1)
      | other ->
        Alcotest.failf "%s after crash: %s" (Query.name q)
          (Oracle.describe other))
    [ Query.Q1_regression; Query.Q6_overlap ]

(* A crash before the first checkpoint must rebuild from the base. *)
let test_crash_before_first_checkpoint () =
  let ds = G.generate ~seed:9L spec in
  let log = Ingest.generate ds in
  let fault = Fault.of_events [ Fault.Node_crash { node = 0; superstep = 1 } ] in
  let exec = Exec.create ~checkpoint_every:100 ~queries:[ Query.Q6_overlap ] ds log in
  Exec.run ~fault exec;
  Alcotest.(check int) "crash fired" 1 (Exec.counters exec).Exec.crashes;
  Alcotest.(check string) "still converges"
    (Transform.dataset_fingerprint (Ingest.materialize ds log))
    (Transform.dataset_fingerprint (Exec.snapshot exec))

let test_staleness_fallback () =
  let ds = G.generate ~seed:5L spec in
  let log = Ingest.generate ds in
  (* Huge staleness bound: the cached Q3/Q4 payloads stay pinned at the
     base state while events accumulate. *)
  let config =
    { Gb_stream.Maintain.params = Query.default_params;
      staleness_limit = 1_000_000 }
  in
  let queries = [ Query.Q3_biclustering; Query.Q4_svd ] in
  let exec = Exec.create ~config ~queries ds log in
  let base_q4 = Exec.refresh exec Query.Q4_svd in
  Exec.run exec;
  Alcotest.(check bool) "rows accumulated staleness" true
    (Exec.staleness exec Query.Q4_svd > 0);
  Alcotest.(check string) "within the bound the cached answer is served"
    (Compare.fingerprint base_q4)
    (Compare.fingerprint (Exec.refresh exec Query.Q4_svd));
  ignore (Exec.refresh ~force:true exec Query.Q4_svd);
  Alcotest.(check int) "forced refresh resets staleness" 0
    (Exec.staleness exec Query.Q4_svd);
  (* Zero bound: any applied row forces recomputation on refresh. *)
  let config0 = { config with Gb_stream.Maintain.staleness_limit = 0 } in
  let exec0 = Exec.create ~config:config0 ~queries ds log in
  Exec.run exec0;
  let p = Exec.refresh exec0 Query.Q3_biclustering in
  Alcotest.(check int) "bound-triggered refresh resets staleness" 0
    (Exec.staleness exec0 Query.Q3_biclustering);
  match Check.classify exec0 Query.Q3_biclustering with
  | Oracle.Match { divergence } ->
    Alcotest.(check (float 0.0)) "recompute-fallback is exact" 0.0 divergence;
    ignore p
  | other -> Alcotest.failf "Q3 fallback: %s" (Oracle.describe other)

let test_telemetry_gauges () =
  Tele.set_enabled true;
  Tele.reset ();
  Fun.protect
    ~finally:(fun () ->
      Tele.reset ();
      Tele.set_enabled false)
    (fun () ->
      let ds = G.generate ~seed:6L spec in
      let log = Ingest.generate ds in
      let exec = Exec.create ~queries:[ Query.Q6_overlap ] ds log in
      Exec.run exec;
      let snap = Tele.snapshot () in
      let gauge name =
        match
          List.find_opt (fun f -> f.Tele.fam = name) snap
        with
        | Some { Tele.rows = [ (_, Tele.Sample v) ]; _ } -> v
        | _ -> Alcotest.failf "gauge family %s missing" name
      in
      Alcotest.(check (float 0.0))
        "stream_watermark at the last batch"
        (float_of_int (Array.length log.Ingest.batches - 1))
        (gauge "stream_watermark");
      Alcotest.(check (float 0.0)) "stream_ingest_lag drained" 0.0
        (gauge "stream_ingest_lag");
      (* Exposition round-trip: render, then strict-parse. *)
      let text = Gb_obs.Expo.render snap in
      (match Gb_obs.Expo.validate text with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "exposition round-trip: %s" e);
      Alcotest.(check bool) "watermark family rendered" true
        (let re = "stream_watermark" in
         let len = String.length re in
         let n = String.length text in
         let rec scan i =
           i + len <= n && (String.sub text i len = re || scan (i + 1))
         in
         scan 0))

(* The stream pseudo-engine plugs into the ordinary harness cell runner
   and classifies against the reference like any other engine. *)
let test_pseudo_engine () =
  let ds = G.generate ~seed:7L spec in
  let eng = Exec.engine () in
  let outcome =
    Engine.run eng ds Query.Q5_statistics ~timeout_s:60.0 ()
  in
  match outcome with
  | Engine.Completed (timing, payload) ->
    Alcotest.(check bool) "timed phases" true
      (timing.Engine.dm >= 0.0 && timing.Engine.analytics >= 0.0);
    let final = Ingest.materialize ds (Ingest.generate ds) in
    let reference =
      Engine.run Oracle.reference final Query.Q5_statistics ~timeout_s:60.0 ()
    in
    (match Engine.payload_of reference with
    | Some ref_payload ->
      Alcotest.(check string) "engine answer == recompute on final data"
        (Compare.fingerprint ref_payload)
        (Compare.fingerprint payload)
    | None -> Alcotest.fail "reference failed")
  | other -> Alcotest.failf "engine outcome: %a" Engine.pp_outcome other

(* The chaos-grid shape: the pseudo-engine armed with a scatter fault
   plan (the availability table's configuration) absorbs its crashes,
   reports Degraded with the recovery work, and still answers exactly
   like the fault-free run. *)
let test_engine_under_chaos_plan () =
  let ds = G.generate ~seed:8L spec in
  let fault =
    (* crash-only plan, hot enough to fire within a 64-batch log *)
    Fault.scatter ~seed:0xC7A05L ~nodes:1 ~supersteps:64 ~crash_p:0.1 ()
  in
  let profile = Ingest.profile ~batches:64 () in
  let q = Query.Q6_overlap in
  let clean =
    Engine.run (Exec.engine ~profile ()) ds q ~timeout_s:120.0 ()
  in
  let faulty =
    Engine.run (Exec.engine ~fault ~profile ()) ds q ~timeout_s:120.0 ()
  in
  match faulty with
  | Engine.Degraded (_, recovery, payload) ->
    Alcotest.(check bool) "recovery work recorded" true
      (recovery.Engine.recovered_nodes >= 1);
    (match Engine.payload_of clean with
    | Some ref_payload ->
      Alcotest.(check string) "degraded answer bitwise equals fault-free"
        (Compare.fingerprint ref_payload)
        (Compare.fingerprint payload)
    | None -> Alcotest.fail "fault-free run failed")
  | other -> Alcotest.failf "chaos-plan outcome: %a" Engine.pp_outcome other

let suite =
  [
    Alcotest.test_case "ingest log deterministic" `Quick test_log_deterministic;
    Alcotest.test_case "PRNG split leaves base tables unchanged" `Quick
      test_split_leaves_base_unchanged;
    Alcotest.test_case "zero-event snapshot fingerprints like the base" `Quick
      test_zero_event_snapshot;
    Alcotest.test_case "materialize grows the observation axes" `Quick
      test_materialize_shapes;
    Alcotest.test_case "executor replay == one-shot materialize" `Quick
      test_exec_matches_materialize;
    Alcotest.test_case "refresh == recompute across seeds (oracle)" `Slow
      test_refresh_equals_recompute;
    Alcotest.test_case "Q1/Q2/Q5 refresh goldens after each of 40 batches"
      `Quick test_refresh_goldens;
    Alcotest.test_case "mid-stream crash: replay converges, degraded match"
      `Quick test_crash_replay_converges;
    Alcotest.test_case "crash before first checkpoint rebuilds from base"
      `Quick test_crash_before_first_checkpoint;
    Alcotest.test_case "Q3/Q4 staleness-bounded fallback" `Slow
      test_staleness_fallback;
    Alcotest.test_case "watermark and ingest-lag gauges" `Quick
      test_telemetry_gauges;
    Alcotest.test_case "stream pseudo-engine completes and conforms" `Quick
      test_pseudo_engine;
    Alcotest.test_case "chaos scatter plan: degraded, answer unchanged" `Quick
      test_engine_under_chaos_plan;
  ]
