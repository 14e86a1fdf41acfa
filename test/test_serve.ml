(* The serving layer: admission control, deadlines, load shedding,
   circuit breakers, the retrying client, the deterministic load
   generator, and the live (wall-clock) path's conformance with direct
   engine runs. Everything except the live tests runs on the sim clock,
   so outcome counts are asserted exactly. *)

open Genbase
module Serve = Gb_serve
module Server = Gb_serve.Server
module Admission = Gb_serve.Admission
module Outcome = Gb_serve.Outcome
module Breaker = Gb_serve.Breaker
module Client = Gb_serve.Client
module Loadgen = Gb_serve.Loadgen
module Estimate = Gb_serve.Estimate
module Spec = Gb_datagen.Spec
module Deadline = Gb_util.Deadline

(* --- request plumbing --- *)

let req ?(id = 1) ?(key = 0) ?(engine = "E") ?(query = Query.Q1_regression)
    ?(arrival = 0.) ?(deadline = 1e9) ?(service = 1.) ?(bytes = 1)
    ?(fail = false) ?trace () =
  {
    Server.id;
    key;
    trace = Option.value trace ~default:id;
    attempt = 1;
    engine;
    query;
    arrival_s = arrival;
    deadline_s = deadline;
    service_s = service;
    bytes;
    fail;
  }

let disposition (r : Outcome.response) = r.Outcome.disposition

let count responses p = List.length (List.filter p responses)

(* --- deadlines at the checkpoint boundary --- *)

(* A query finishing exactly at its deadline is served; one nanosecond
   of overrun is cancelled at the deadline instant. Mirrors
   Deadline.expired's strict comparison, which the kernels' cooperative
   checkpoints consult. *)
let test_deadline_boundary () =
  let config = { Server.default_config with lanes = 1; queue_depth = 4 } in
  let exact = req ~id:1 ~deadline:2. ~service:2. () in
  let over = req ~id:2 ~arrival:10. ~deadline:2. ~service:2.0000001 () in
  let responses, _ = Server.run ~config [ exact; over ] in
  match responses with
  | [ a; b ] ->
    Alcotest.(check bool)
      "exactly-at-deadline is served"
      (disposition a = Outcome.Served Outcome.Ok_)
      true;
    Alcotest.(check bool)
      "overrun is cancelled mid-execution"
      (disposition b = Outcome.Deadline_exceeded `Running)
      true;
    Alcotest.(check (float 1e-9))
      "cancelled at the deadline instant" 12. b.Outcome.finished_s;
    Alcotest.(check (float 1e-9)) "no overrun charged" 2. b.Outcome.exec_s
  | _ -> Alcotest.fail "expected two responses"

let test_deadline_in_queue () =
  (* One lane busy until t=10; the queued request's deadline (t=2) dies
     before a lane frees up. *)
  let config = { Server.default_config with lanes = 1; queue_depth = 4 } in
  let hog = req ~id:1 ~service:10. () in
  let starved = req ~id:2 ~arrival:0.5 ~deadline:1.5 ~service:1. () in
  let responses, _ = Server.run ~config [ hog; starved ] in
  let starved_r = List.find (fun r -> r.Outcome.id = 2) responses in
  Alcotest.(check bool)
    "expired while queued"
    (disposition starved_r = Outcome.Deadline_exceeded `Queued)
    true;
  Alcotest.(check (float 1e-9))
    "stamped at its deadline instant" 2. starved_r.Outcome.finished_s;
  Alcotest.(check (float 1e-9))
    "waited from arrival to deadline" 1.5 starved_r.Outcome.queue_wait_s

(* --- queue-full shedding under burst: exact counts --- *)

let test_burst_shedding_exact () =
  (* 2 lanes, depth-3 queue, 20 simultaneous unit-service arrivals with
     deadline 2. By hand: r1,r2 execute at t=0; r3,r4,r5 queue; r6..r20
     shed (15). At t=1, r3 and r4 dispatch and complete exactly at their
     deadline (served). At t=2, r5 dispatches with zero budget left and
     is cancelled on the spot. *)
  let config =
    { Server.default_config with lanes = 2; queue_depth = 3; policy = Admission.Fifo }
  in
  let requests =
    List.init 20 (fun i -> req ~id:(i + 1) ~deadline:2. ~service:1. ())
  in
  let responses, stats = Server.run ~config requests in
  Alcotest.(check int) "every request answered" 20 (List.length responses);
  Alcotest.(check int) "served"
    4
    (count responses (fun r -> disposition r = Outcome.Served Outcome.Ok_));
  Alcotest.(check int) "shed on the full queue"
    15
    (count responses (fun r ->
         disposition r = Outcome.Shed Outcome.Queue_full));
  Alcotest.(check int) "cancelled at dispatch with spent budget"
    1
    (count responses (fun r ->
         disposition r = Outcome.Deadline_exceeded `Running));
  Alcotest.(check int) "queue never exceeded its bound" 3
    stats.Server.max_queue_len;
  let shed = List.find (fun r -> disposition r = Outcome.Shed Outcome.Queue_full) responses in
  Alcotest.(check bool)
    "queue-full shed carries a retry-after hint"
    (shed.Outcome.retry_after_s <> None)
    true

let test_sjf_order () =
  (* One lane busy until t=1; three queued jobs dispatch cheapest-first
     under SJF, arrival-first under FIFO. *)
  let mk policy =
    let config =
      { Server.default_config with lanes = 1; queue_depth = 8; policy }
    in
    let requests =
      [
        req ~id:1 ~service:1. ();
        req ~id:2 ~arrival:0.1 ~service:3. ();
        req ~id:3 ~arrival:0.2 ~service:2. ();
        req ~id:4 ~arrival:0.3 ~service:0.5 ();
      ]
    in
    let responses, _ = Server.run ~config requests in
    List.map
      (fun r -> r.Outcome.id)
      (List.sort
         (fun a b -> Float.compare a.Outcome.finished_s b.Outcome.finished_s)
         responses)
  in
  Alcotest.(check (list int)) "FIFO finishes in arrival order" [ 1; 2; 3; 4 ]
    (mk Admission.Fifo);
  Alcotest.(check (list int)) "SJF finishes cheapest-first" [ 1; 4; 3; 2 ]
    (mk Admission.Sjf)

let test_memory_admission () =
  (* Budget fits one heavy query at a time: the second waits for the
     first's release even though a lane is free; an over-capacity whale
     is shed outright. *)
  let config =
    { Server.default_config with lanes = 2; queue_depth = 8; mem_bytes = 100 }
  in
  let requests =
    [
      req ~id:1 ~service:1. ~bytes:80 ();
      req ~id:2 ~service:1. ~bytes:80 ();
      req ~id:3 ~service:1. ~bytes:101 ();
    ]
  in
  let responses, stats = Server.run ~config requests in
  let r1 = List.find (fun r -> r.Outcome.id = 1) responses in
  let r2 = List.find (fun r -> r.Outcome.id = 2) responses in
  let r3 = List.find (fun r -> r.Outcome.id = 3) responses in
  Alcotest.(check bool) "first served"
    (disposition r1 = Outcome.Served Outcome.Ok_)
    true;
  Alcotest.(check bool) "second serialized behind the budget"
    (disposition r2 = Outcome.Served Outcome.Ok_
    && r2.Outcome.queue_wait_s = 1.)
    true;
  Alcotest.(check bool) "whale shed"
    (disposition r3 = Outcome.Shed Outcome.Memory)
    true;
  Alcotest.(check bool) "reserved memory stayed within the budget"
    (stats.Server.max_mem_used <= 100)
    true

let test_server_deterministic () =
  let config = { Server.default_config with lanes = 2; queue_depth = 3 } in
  let requests =
    List.init 50 (fun i ->
        req ~id:(i + 1)
          ~arrival:(float_of_int (i mod 7) *. 0.3)
          ~deadline:4.
          ~service:(0.5 +. float_of_int (i mod 3))
          ())
  in
  let r1, s1 = Server.run ~config requests in
  let r2, s2 = Server.run ~config requests in
  Alcotest.(check bool) "responses replay bit-for-bit" (r1 = r2) true;
  Alcotest.(check bool) "stats replay bit-for-bit" (s1 = s2) true

(* --- circuit breaker on the sim clock --- *)

let test_breaker_transitions () =
  let t = ref 0. in
  let config =
    {
      Breaker.window = 8;
      min_samples = 4;
      failure_threshold = 0.5;
      cooldown_s = 5.;
      half_open_probes = 2;
    }
  in
  (* Observe the full lifecycle three ways: the callback sequence, the
     labeled state gauge, and the trace instants. *)
  let transitions = ref [] in
  Gb_obs.Obs.reset ();
  Gb_obs.Obs.set_enabled true;
  Gb_obs.Telemetry.set_enabled true;
  let b =
    Breaker.create ~config
      ~on_transition:(fun prev next -> transitions := (prev, next) :: !transitions)
      ~now:(fun () -> !t)
      "E"
  in
  Alcotest.(check bool) "starts closed" (Breaker.state b = Breaker.Closed) true;
  (* Two successes, then failures until the rate trips the window. *)
  Breaker.record b ~ok:true;
  Breaker.record b ~ok:true;
  Breaker.record b ~ok:false;
  Breaker.record b ~ok:false;
  Alcotest.(check bool) "50% of 4 samples trips"
    (Breaker.state b = Breaker.Open)
    true;
  Alcotest.(check int) "one trip recorded" 1 (Breaker.trips b);
  (match Breaker.admit b with
  | `Fast_fail retry_after ->
    Alcotest.(check (float 1e-9)) "retry-after spans the cooldown" 5.
      retry_after
  | `Admit -> Alcotest.fail "open breaker admitted");
  (* Cooldown elapses on the sim clock: half-open admits two probes and
     fast-fails the third. *)
  t := 5.;
  Alcotest.(check bool) "half-open after cooldown"
    (Breaker.state b = Breaker.Half_open)
    true;
  Alcotest.(check bool) "first probe admitted" (Breaker.admit b = `Admit) true;
  Alcotest.(check bool) "second probe admitted" (Breaker.admit b = `Admit) true;
  (match Breaker.admit b with
  | `Fast_fail _ -> ()
  | `Admit -> Alcotest.fail "third concurrent probe admitted");
  (* Both probes succeed: closed again, window reset. *)
  Breaker.record b ~ok:true;
  Breaker.record b ~ok:true;
  Alcotest.(check bool) "probe successes close the breaker"
    (Breaker.state b = Breaker.Closed)
    true;
  Alcotest.(check bool) "closed breaker admits" (Breaker.admit b = `Admit) true;
  (* The exact transition sequence, in order. *)
  Alcotest.(check bool)
    "transition sequence closed->open->half_open->closed"
    (List.rev !transitions
    = [
        (Breaker.Closed, Breaker.Open);
        (Breaker.Open, Breaker.Half_open);
        (Breaker.Half_open, Breaker.Closed);
      ])
    true;
  (* The labeled gauge tracks the final state (0 = closed). *)
  Alcotest.(check (float 1e-9))
    "breaker state gauge is closed" 0.
    (Gb_obs.Telemetry.gauge_value
       (Gb_obs.Telemetry.gauge_family "genbase_serve_breaker_state")
       [ ("engine", "E") ]);
  (* And each transition dropped a sim-track instant with from/to. *)
  let instants =
    List.filter
      (function
        | Gb_obs.Obs.Instant_ev { name; _ } -> name = "breaker.transition"
        | Gb_obs.Obs.Span_ev _ -> false)
      (Gb_obs.Obs.events ())
  in
  Alcotest.(check int) "three transition instants" 3 (List.length instants);
  Gb_obs.Obs.set_enabled false;
  Gb_obs.Telemetry.set_enabled false;
  Gb_obs.Obs.reset ()

let test_breaker_reopens_on_probe_failure () =
  let t = ref 0. in
  let config = { Breaker.default_config with min_samples = 2; cooldown_s = 1. } in
  let b = Breaker.create ~config ~now:(fun () -> !t) "E" in
  Breaker.record b ~ok:false;
  Breaker.record b ~ok:false;
  Alcotest.(check bool) "tripped" (Breaker.state b = Breaker.Open) true;
  t := 1.;
  Alcotest.(check bool) "probe admitted" (Breaker.admit b = `Admit) true;
  Breaker.record b ~ok:false;
  Alcotest.(check bool) "probe failure re-opens"
    (Breaker.state b = Breaker.Open)
    true;
  Alcotest.(check int) "second trip" 2 (Breaker.trips b);
  (* An abandoned probe (queued request that expired) releases its slot
     rather than wedging half-open. *)
  t := 2.;
  Alcotest.(check bool) "half-open again" (Breaker.admit b = `Admit) true;
  Breaker.abandon b;
  Alcotest.(check bool) "abandoned slot is reusable" (Breaker.admit b = `Admit)
    true

let test_breaker_sheds_in_server () =
  (* Engine B fails every execution; after its breaker trips, later
     arrivals shed fast with a retry-after instead of queueing. *)
  let breaker =
    { Breaker.default_config with window = 4; min_samples = 4; cooldown_s = 1e6 }
  in
  let config =
    { Server.default_config with lanes = 1; queue_depth = 32; breaker }
  in
  let requests =
    List.init 12 (fun i ->
        req ~id:(i + 1) ~engine:"B"
          ~arrival:(float_of_int i *. 2.)
          ~service:1. ~fail:true ())
  in
  let responses, stats = Server.run ~config requests in
  let failed =
    count responses (fun r -> disposition r = Outcome.Served Outcome.Failed_)
  in
  let shed =
    count responses (fun r -> disposition r = Outcome.Shed Outcome.Breaker_open)
  in
  Alcotest.(check int) "four failures feed the window" 4 failed;
  Alcotest.(check int) "the rest fast-fail" 8 shed;
  Alcotest.(check bool) "trip counted" (stats.Server.breaker_trips = [ ("B", 1) ])
    true

(* --- client backoff schedule --- *)

let test_client_next_delay () =
  let policy = Client.default_policy in
  let d1 =
    Client.next_delay policy ~key:7 ~attempt:1 ~retry_after:None
      ~remaining_s:1e9
  in
  Alcotest.(check bool) "first retry scheduled" (d1 <> None) true;
  Alcotest.(check bool) "deterministic for a key"
    (d1
    = Client.next_delay policy ~key:7 ~attempt:1 ~retry_after:None
        ~remaining_s:1e9)
    true;
  (* Retry-after hints raise the delay, never lower it. *)
  (match
     ( d1,
       Client.next_delay policy ~key:7 ~attempt:1 ~retry_after:(Some 100.)
         ~remaining_s:1e9 )
   with
  | Some base, Some hinted ->
    Alcotest.(check (float 1e-9)) "hint dominates" 100. hinted;
    Alcotest.(check bool) "hint >= backoff" (hinted >= base) true
  | _ -> Alcotest.fail "expected delays");
  Alcotest.(check bool) "attempts exhausted"
    (Client.next_delay policy ~key:7
       ~attempt:policy.Client.backoff.Gb_fault.Retry.max_attempts
       ~retry_after:None ~remaining_s:1e9
    = None)
    true;
  Alcotest.(check bool) "budget cutoff"
    (Client.next_delay policy ~key:7 ~attempt:1 ~retry_after:None
       ~remaining_s:0.01
    = None)
    true

(* --- cost model --- *)

let test_estimate_sanity () =
  List.iter
    (fun q ->
      let s = Estimate.service_s ~genes:5000 ~patients:5000 q in
      let b = Estimate.bytes ~genes:5000 ~patients:5000 q in
      Alcotest.(check bool) "positive finite service"
        (Float.is_finite s && s > 0.)
        true;
      Alcotest.(check bool) "positive working set" (b > 0) true;
      Alcotest.(check bool) "bigger data costs more"
        (Estimate.service_s ~genes:15000 ~patients:20000 q > s)
        true)
    Query.all;
  Alcotest.(check bool) "engine factors differentiate"
    (Estimate.service_s ~engine:"Hadoop" ~genes:5000 ~patients:5000
       Query.Q1_regression
    > Estimate.service_s ~engine:"SciDB + Xeon Phi" ~genes:5000 ~patients:5000
        Query.Q1_regression)
    true

(* Every single-node engine, and the Phi engine, gets its speed class
   under the name its record carries: SJF ranking and the retry-after
   backlog hint both estimate through this factor. *)
let test_engine_speed_classes () =
  List.iter
    (fun ((e : Engine.t), factor) ->
      Alcotest.(check (float 0.)) e.Engine.name factor
        (Estimate.engine_factor e.Engine.name))
    [
      (Engine_r.engine, 1.0);
      (Engine_sql.postgres_r, 1.6);
      (Engine_madlib.engine, 1.3);
      (Engine_sql.colstore_r, 0.9);
      (Engine_sql.colstore_udf, 0.7);
      (Engine_scidb.engine, 0.8);
      (Engine_scidb.phi, 0.5);
      (Engine_hadoop.engine, 2.5);
    ]

(* --- load generator --- *)

let quick_cfg name =
  match Loadgen.find_scenario name with
  | Error e -> Alcotest.fail e
  | Ok sc -> { (Loadgen.default_config sc) with Loadgen.duration = 30. }

let test_loadgen_deterministic () =
  let { Loadgen.responses = r1; stats = s1; summary = sum1; _ } =
    Loadgen.run (quick_cfg "chaos")
  in
  let { Loadgen.responses = r2; stats = s2; summary = sum2; _ } =
    Loadgen.run (quick_cfg "chaos")
  in
  Alcotest.(check bool) "responses replay" (r1 = r2) true;
  Alcotest.(check bool) "stats replay" (s1 = s2) true;
  Alcotest.(check bool) "summary replays" (sum1 = sum2) true

(* The acceptance criterion: a 4x overload burst keeps the queue and
   memory bounded, resolves every excess query explicitly, and the
   admitted queries' goodput stays within 10% of the fleet's unloaded
   service capacity. *)
let test_overload_bounded_goodput () =
  let cfg = quick_cfg "overload" in
  let { Loadgen.responses; stats; summary; _ } = Loadgen.run cfg in
  Alcotest.(check bool) "queue bounded"
    (stats.Server.max_queue_len <= cfg.Loadgen.queue_depth)
    true;
  (* Every submission resolved explicitly. *)
  Alcotest.(check int) "no silent drops" summary.Loadgen.attempts
    (List.length responses);
  Alcotest.(check bool) "excess load was shed or expired, not queued"
    (summary.Loadgen.shed_queue > 0)
    true;
  (* Goodput within 10% of the unloaded baseline: the served rate under
     4x overload is at least 90% of the configured service capacity
     (lanes / mean service time), i.e. admission control protects the
     queries it admits instead of collapsing under the burst. *)
  let genes, patients = Spec.paper_dims cfg.Loadgen.size in
  let services =
    List.concat_map
      (fun q ->
        List.map
          (fun engine -> Estimate.service_s ~engine ~genes ~patients q)
          cfg.Loadgen.engines)
      Query.all
  in
  let mean =
    List.fold_left ( +. ) 0. services /. float_of_int (List.length services)
  in
  let capacity_qps = float_of_int cfg.Loadgen.lanes /. mean in
  Alcotest.(check bool)
    (Printf.sprintf "goodput %.3f within 10%% of capacity %.3f"
       summary.Loadgen.goodput_qps capacity_qps)
    (summary.Loadgen.goodput_qps >= 0.9 *. capacity_qps)
    true;
  (* Memory stays bounded by the derived budget. *)
  let max_bytes =
    List.fold_left
      (fun a q ->
        max a (Estimate.bytes ~genes ~patients q))
      1 Query.all
  in
  Alcotest.(check bool) "memory bounded"
    (stats.Server.max_mem_used <= cfg.Loadgen.lanes * max_bytes)
    true

let test_loadgen_steady_clean () =
  let { Loadgen.summary; _ } = Loadgen.run (quick_cfg "steady") in
  Alcotest.(check int) "no sheds at 0.6x load" 0
    (summary.Loadgen.shed_queue + summary.Loadgen.shed_mem
   + summary.Loadgen.shed_breaker);
  Alcotest.(check int) "no retries" 0 summary.Loadgen.retries;
  Alcotest.(check bool) "everything served"
    (summary.Loadgen.served_ok = summary.Loadgen.offered)
    true

let test_loadgen_chaos_trips () =
  let { Loadgen.stats; summary; _ } = Loadgen.run (quick_cfg "chaos") in
  Alcotest.(check bool) "fault plan produced failures"
    (summary.Loadgen.served_failed > 0)
    true;
  Alcotest.(check bool) "breakers tripped" (summary.Loadgen.breaker_trips > 0)
    true;
  Alcotest.(check bool) "breaker sheds fast-failed"
    (summary.Loadgen.shed_breaker > 0)
    true;
  Alcotest.(check bool) "per-engine trip accounting"
    (List.exists (fun (_, n) -> n > 0) stats.Server.breaker_trips)
    true

(* --- ambient deadlines (the live path's cancellation mechanism) --- *)

let test_ambient_deadline () =
  Alcotest.(check bool) "unarmed outside" (Deadline.Ambient.armed ()) false;
  Deadline.Ambient.checkpoint ();
  (* no-op when unarmed *)
  let fired =
    try
      Deadline.Ambient.with_deadline
        (Deadline.start ~seconds:0.)
        (fun () ->
          Alcotest.(check bool) "armed inside" (Deadline.Ambient.armed ()) true;
          (* A zero-second deadline has already expired by the first
             checkpoint. *)
          Unix.sleepf 0.002;
          Deadline.Ambient.checkpoint ();
          false)
    with Deadline.Timeout -> true
  in
  Alcotest.(check bool) "checkpoint fires past the deadline" fired true;
  Alcotest.(check bool) "disarmed after" (Deadline.Ambient.armed ()) false

(* --- live path conformance: served results match direct runs --- *)

let tiny = Dataset.generate (Spec.custom ~genes:100 ~patients:120)

let live_engines =
  [ Engine_r.engine; Engine_sql.colstore_udf; Engine_scidb.engine ]

let tiny_b = Dataset.generate ~seed:7L (Spec.custom ~genes:80 ~patients:90)

(* One 1-lane server per case, driven through a random sequence of
   (engine, query, data set): lane sessions hit, miss and switch data
   sets, and every served payload must equal a direct run. *)
let test_live_matches_direct =
  let datasets = [| tiny; tiny_b |] in
  let direct = Hashtbl.create 64 in
  let direct_run ei qi di =
    match Hashtbl.find_opt direct (ei, qi, di) with
    | Some o -> o
    | None ->
      let o =
        Engine.run (List.nth live_engines ei) datasets.(di)
          (List.nth Query.all qi) ~timeout_s:300. ()
      in
      Hashtbl.add direct (ei, qi, di) o;
      o
  in
  QCheck.Test.make ~name:"served payloads equal direct engine runs" ~count:12
    QCheck.(
      list_of_size Gen.(int_range 2 8)
        (triple
           (int_range 0 (List.length live_engines - 1))
           (int_range 0 (List.length Query.all - 1))
           (int_range 0 1)))
    (fun steps ->
      let t = Serve.Live.create ~config:{ (Serve.Live.default_config ()) with Serve.Live.lanes = 1 } () in
      Fun.protect ~finally:(fun () -> Serve.Live.shutdown t) @@ fun () ->
      List.for_all
        (fun (ei, qi, di) ->
          let engine = List.nth live_engines ei in
          let query = List.nth Query.all qi in
          let served =
            Serve.Live.run t ~engine ~ds:datasets.(di) ~deadline_s:300. query
          in
          match (served.Outcome.engine_outcome, direct_run ei qi di) with
          | Some (Engine.Completed (_, p1)), Engine.Completed (_, p2) ->
            if p1 = p2 then true
            else QCheck.Test.fail_reportf "payloads differ for %s/%s on data set %d"
                engine.Engine.name (Query.name query) di
          | Some (Engine.Unsupported | Engine.Errored _), (Engine.Unsupported | Engine.Errored _) ->
            true
          | o, d ->
            QCheck.Test.fail_reportf "outcome mismatch for %s/%s: served %s, direct %s"
              engine.Engine.name (Query.name query)
              (match o with
              | None -> "none"
              | Some o -> Format.asprintf "%a" Engine.pp_outcome o)
              (Format.asprintf "%a" Engine.pp_outcome d))
        steps)

(* A fake engine that counts its [prepare] calls and answers
   [| tag; genes |], so a response names the record and the data set
   that produced it. [fail ds] makes [prepare] raise on that data set;
   [delay_s] makes it take that long. *)
let counting_engine ?(fail = fun _ -> false) ?(delay_s = 0.) name tag =
  let prepares = Atomic.make 0 in
  let prepare ds =
    Atomic.incr prepares;
    if delay_s > 0. then Unix.sleepf delay_s;
    if fail ds then failwith "prepare failed";
    let genes = float_of_int ds.Gb_datagen.Generate.spec.Spec.genes in
    fun _ ~params:_ ~timeout_s:_ ->
      Engine.completed { Engine.dm = 0.; analytics = 0. }
        (Engine.Singular_values [| tag; genes |])
  in
  ( { Engine.name; kind = `Single_node; supports = (fun _ -> true); prepare },
    prepares )

(* Lane slots over [Engine.memo]: one prepare per (record, data set) run
   of requests, a raising prepare caches nothing and keeps the previous
   session, and two records sharing a name each answer for
   themselves. *)
let test_live_lane_sessions () =
  let t =
    Serve.Live.create
      ~config:{ (Serve.Live.default_config ()) with Serve.Live.lanes = 1 }
      ()
  in
  Fun.protect ~finally:(fun () -> Serve.Live.shutdown t) @@ fun () ->
  let serve engine ds =
    let r = Serve.Live.run t ~engine ~ds ~deadline_s:300. Query.Q1_regression in
    match (disposition r, r.Outcome.engine_outcome) with
    | Outcome.Served Outcome.Ok_, Some (Engine.Completed (_, Engine.Singular_values a)) ->
      Some (a.(0), int_of_float a.(1))
    | Outcome.Served Outcome.Failed_, _ -> None
    | _ -> Alcotest.failf "unexpected response %s" (Outcome.label r)
  in
  let answer = Alcotest.(option (pair (float 0.) int)) in
  let e, prepares = counting_engine "Counting" 1. in
  for _ = 1 to 5 do
    Alcotest.check answer "answer" (Some (1., 100)) (serve e tiny)
  done;
  Alcotest.(check int) "N requests on one data set: one prepare" 1
    (Atomic.get prepares);
  (* Sessions key on physical identity: an equal copy is another data
     set. *)
  let tiny_copy = Dataset.generate (Spec.custom ~genes:100 ~patients:120) in
  List.iter
    (fun (ds, genes) -> Alcotest.check answer "answer" (Some (1., genes)) (serve e ds))
    [ (tiny_b, 80); (tiny_b, 80); (tiny, 100); (tiny_b, 80); (tiny_copy, 100) ];
  Alcotest.(check int) "one prepare per data-set switch" 5 (Atomic.get prepares);
  let flaky, flaky_prepares =
    counting_engine ~fail:(fun ds -> ds == tiny_b) "Flaky" 2.
  in
  Alcotest.check answer "flaky ok" (Some (2., 100)) (serve flaky tiny);
  Alcotest.check answer "raising prepare: served failed" None (serve flaky tiny_b);
  Alcotest.check answer "flaky ok again" (Some (2., 100)) (serve flaky tiny);
  Alcotest.(check int) "the failed prepare kept the old session" 2
    (Atomic.get flaky_prepares);
  Alcotest.check answer "still failing" None (serve flaky tiny_b);
  Alcotest.(check int) "and cached nothing" 3 (Atomic.get flaky_prepares);
  let a, a_prepares = counting_engine "Twin" 10. in
  let b, b_prepares = counting_engine "Twin" 20. in
  List.iter
    (fun (e, tag) -> Alcotest.check answer "twin answers for itself" (Some (tag, 100)) (serve e tiny))
    [ (a, 10.); (b, 20.); (a, 10.); (b, 20.) ];
  Alcotest.(check (pair int int)) "each record switch replaces the slot" (2, 2)
    (Atomic.get a_prepares, Atomic.get b_prepares)

(* An engine gated on a condition variable, so a test controls exactly
   when a lane frees up: [wait_started n] returns once [n] runs have
   entered it, [open_gate ()] lets every run (current and future)
   complete. *)
let gated_engine name =
  let m = Mutex.create () and cv = Condition.create () in
  let opened = ref false and started = ref 0 in
  let engine =
    {
      Engine.name;
      kind = `Single_node;
      supports = (fun _ -> true);
      prepare =
        (fun _ _ ~params:_ ~timeout_s:_ ->
          Mutex.lock m;
          incr started;
          Condition.broadcast cv;
          while not !opened do
            Condition.wait cv m
          done;
          Mutex.unlock m;
          Engine.completed
            { Engine.dm = 0.; analytics = 0. }
            (Engine.Singular_values [| 1. |]));
    }
  in
  let wait_started n =
    Mutex.lock m;
    while !started < n do
      Condition.wait cv m
    done;
    Mutex.unlock m
  in
  let open_gate () =
    Mutex.lock m;
    opened := true;
    Condition.broadcast cv;
    Mutex.unlock m
  in
  (engine, wait_started, open_gate)

(* --- request-scoped traces, SLO determinism, p99 agreement --- *)

module Obs = Gb_obs.Obs
module Telemetry = Gb_obs.Telemetry
module Slo = Gb_obs.Slo
module Critpath = Gb_obs.Critpath

let with_telemetry f =
  Telemetry.set_enabled true;
  Telemetry.reset ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Telemetry.reset ())
    f

(* A traced miss shows the store build as a [load] span under
   [serve.exec], and critical-path blame names it as its own segment; a
   hit has neither. *)
let test_live_load_span () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
  @@ fun () ->
  let e, _ = counting_engine ~delay_s:0.005 "Traced" 1. in
  let t =
    Serve.Live.create
      ~config:{ (Serve.Live.default_config ()) with Serve.Live.lanes = 1 }
      ()
  in
  let request trace =
    ignore
      (Serve.Live.await
         (Serve.Live.submit t ~engine:e ~ds:tiny ~trace ~deadline_s:300.
            Query.Q1_regression))
  in
  request 1;
  request 2;
  Serve.Live.shutdown t;
  let events = Obs.events () in
  let spans =
    List.filter_map (function Obs.Span_ev s -> Some s | _ -> None) events
  in
  let exec_of trace =
    List.find
      (fun (s : Obs.span) ->
        s.Obs.name = "serve.exec"
        && List.mem ("trace", Obs.Int trace) s.Obs.attrs)
      spans
  in
  let loads_under (exec : Obs.span) =
    List.filter
      (fun (s : Obs.span) ->
        s.Obs.name = "load" && s.Obs.parent = exec.Obs.id)
      spans
  in
  Alcotest.(check int) "miss: serve.exec -> load" 1
    (List.length (loads_under (exec_of 1)));
  Alcotest.(check int) "hit: no load span" 0 (List.length (loads_under (exec_of 2)));
  let requests = Critpath.requests events in
  (match Critpath.check requests with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  let blame trace =
    (List.find (fun r -> r.Critpath.r_trace = trace) requests)
      .Critpath.r_blame
  in
  Alcotest.(check bool) "miss blames the build" true
    (match List.assoc_opt "load" (blame 1) with Some d -> d > 0. | None -> false);
  Alcotest.(check bool) "hit blames no build" false
    (List.mem_assoc "load" (blame 2))

(* Every span and instant of one logical request — admission decisions,
   queue wait, execution, retries — carries the same trace id, so a
   Chrome-trace consumer can stitch the request's life back together
   across shed/retry hops. *)
let test_trace_linked_spans () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let { Loadgen.summary; _ } = Loadgen.run (quick_cfg "overload") in
      Alcotest.(check bool) "scenario retried" (summary.Loadgen.retries > 0)
        true;
      let events = Obs.events () in
      let trace_of attrs =
        List.find_map
          (function "trace", Obs.Int t -> Some t | _ -> None)
          attrs
      in
      (* Group (name, attrs) by trace id across spans and instants. *)
      let tbl = Hashtbl.create 256 in
      List.iter
        (fun ev ->
          let name, attrs =
            match ev with
            | Obs.Span_ev s -> (s.Obs.name, s.Obs.attrs)
            | Obs.Instant_ev { name; attrs; _ } -> (name, attrs)
          in
          match trace_of attrs with
          | None -> ()
          | Some t ->
            Hashtbl.replace tbl t (name :: Option.value ~default:[] (Hashtbl.find_opt tbl t)))
        events;
      (* At least one request must show the full retried lifecycle
         under one id: two admissions, a retry instant, and the
         queue/exec spans of the attempt that went through. *)
      let linked =
        Hashtbl.fold
          (fun _ names acc ->
            acc
            || List.mem "client.retry" names
               && List.mem "serve.admit" names
               && List.mem "queue" names
               && List.mem "exec" names
               && List.length (List.filter (( = ) "serve.admit") names) >= 2)
          tbl false
      in
      Alcotest.(check bool)
        "admit/queue/exec/retry of one request share a trace id" linked true)

(* The SLO monitor rides the deterministic simulation: same scenario and
   seed, same alert instants — and chaos must actually trip it. *)
let test_slo_chaos_deterministic () =
  let i1 = Loadgen.run (quick_cfg "chaos") in
  let i2 = Loadgen.run (quick_cfg "chaos") in
  let a1 = Slo.alerts i1.Loadgen.monitor in
  let a2 = Slo.alerts i2.Loadgen.monitor in
  Alcotest.(check bool) "chaos trips at least one alert"
    (List.exists (fun a -> a.Slo.a_firing) a1)
    true;
  Alcotest.(check bool) "alert instants replay exactly" (a1 = a2) true;
  Alcotest.(check bool) "bench records replay exactly"
    (Loadgen.slo_records i1 = Loadgen.slo_records i2)
    true

(* Acceptance: the interpolated p99 from the labeled latency histogram
   agrees with the load generator's exact post-hoc p99 within one bucket
   width. *)
let test_p99_agreement_overload () =
  with_telemetry (fun () ->
      let i = Loadgen.run (quick_cfg "overload") in
      let summary = i.Loadgen.summary in
      match Loadgen.p99_agreement summary with
      | None -> Alcotest.fail "telemetry enabled but latency family empty"
      | Some (interp, exact, tolerance) ->
        Alcotest.(check bool)
          (Printf.sprintf
             "interpolated %.4f vs exact %.4f within tolerance %.4f" interp
             exact tolerance)
          (Float.abs (interp -. exact) <= tolerance)
          true;
        (* And the live window agrees about the order of magnitude at
           the end of the run. *)
        let p50, p99, _ =
          Loadgen.live_quantiles i ~now:summary.Loadgen.horizon_s
            ~horizon_s:(Telemetry.Window.horizon_s i.Loadgen.window)
        in
        Alcotest.(check bool) "live window populated"
          (p50 <> None && p99 <> None)
          true)

(* --- the shared admission core, on a fake clock --- *)

let test_admission_table () =
  let clock = ref 0. in
  let breaker =
    { Breaker.default_config with window = 1; min_samples = 1; cooldown_s = 10. }
  in
  let admit ?(engine = "E") ?(estimate = 1.) ?(bytes = 1) ?(deadline_at = 1e9)
      adm payload =
    Admission.admit adm ~engine ~query:Query.Q1_regression ~estimate ~bytes
      ~deadline_at payload
  in
  (* A depth-2 queue over 2 lanes holding [estimates], with engine "Bad"
     tripped. *)
  let state ?(policy = Admission.Fifo) estimates =
    let adm =
      Admission.create ~policy ~queue_depth:2 ~lanes:2 ~mem_bytes:100 ~breaker
        ~now:(fun () -> !clock)
    in
    List.iteri
      (fun i estimate -> ignore (admit adm ~estimate (string_of_int i)))
      estimates;
    Admission.complete adm ~engine:"Bad" ~ok:false;
    adm
  in
  let verdict adm ~engine ~bytes =
    match admit adm ~engine ~bytes "new" with
    | Admission.Shed (_, Some hint) as v ->
      Printf.sprintf "%s %g" (Admission.verdict_label v) hint
    | v -> Admission.verdict_label v
  in
  (* Ladder order is cap, queue, breaker; the queue-full hint is one
     drain of the backlog across the lanes, floored at 50 ms. *)
  List.iter
    (fun (name, estimates, engine, bytes, expected) ->
      Alcotest.(check string)
        name expected
        (verdict (state estimates) ~engine ~bytes))
    [
      ("cap first", [ 1.; 3. ], "Bad", 101, "shed:memory");
      ("then queue", [ 1.; 3. ], "Bad", 1, "shed:queue_full 2");
      ("hint floor", [ 0.01; 0.01 ], "E", 1, "shed:queue_full 0.05");
      ("then breaker", [], "Bad", 1, "shed:breaker_open 10");
      ("else admitted", [ 1. ], "E", 100, "admitted");
    ];
  (* FIFO by admission order; SJF by estimate, ties to the earlier. *)
  List.iter
    (fun (name, policy, estimates, expected) ->
      Alcotest.(check (option string)) name expected
        (Option.map (fun e -> e.Admission.payload)
           (Admission.head (state ~policy estimates))))
    [
      ("fifo oldest", Admission.Fifo, [ 3.; 1. ], Some "0");
      ("sjf cheapest", Admission.Sjf, [ 3.; 1. ], Some "1");
      ("sjf tie to earlier", Admission.Sjf, [ 2.; 2. ], Some "0");
      ("empty", Admission.Fifo, [], None);
    ];
  (* Expiry is strict: an entry dies once the clock passes its deadline. *)
  let adm = state [] in
  ignore (admit adm ~deadline_at:5. "early");
  ignore (admit adm ~deadline_at:10. "on time");
  clock := 10.;
  Alcotest.(check (list string)) "expired" [ "early" ]
    (List.map (fun e -> e.Admission.payload) (Admission.expire adm));
  Alcotest.(check int) "still queued" 1 (Admission.length adm)

(* --- the live server under concurrent load --- *)

(* Sum over every cell of a labeled counter family. *)
let family_total name =
  List.concat_map
    (fun (s : Telemetry.family_snap) ->
      if s.Telemetry.fam = name then s.Telemetry.rows else [])
    (Telemetry.snapshot ())
  |> List.fold_left
       (fun acc -> function _, Telemetry.Sample x -> acc +. x | _ -> acc)
       0.

(* Two lanes and a depth-3 queue under two submitting domains, a gated
   engine, an engine whose queries raise, a deadline that expires in the
   queue, and a shutdown with work in flight. *)
let test_live_sheds_and_serves () =
  with_telemetry @@ fun () ->
  let gated, gated_started, open_gated = gated_engine "Gated" in
  let late, late_started, open_late = gated_engine "Late" in
  let boom =
    {
      gated with
      Engine.name = "Boom";
      prepare = (fun _ _ ~params:_ ~timeout_s:_ -> failwith "boom");
    }
  in
  let budget = Gb_par.Budget.create ~bytes:max_int in
  let breaker =
    { Breaker.default_config with min_samples = 2; cooldown_s = 1e6 }
  in
  let policy = Admission.Fifo in
  let t =
    Serve.Live.create
      ~config:{ Serve.Live.lanes = 2; queue_depth = 3; policy; breaker; budget }
      ()
  in
  let submit ?(deadline_s = 300.) engine =
    Serve.Live.submit t ~engine ~ds:tiny ~deadline_s Query.Q4_svd
  in
  let from_two_domains n engine =
    let go () = List.init n (fun _ -> submit engine) in
    let a = Domain.spawn go and b = Domain.spawn go in
    Domain.join a @ Domain.join b
  in
  (* Both lanes blocked; one request waits out its deadline in the
     queue; six failing requests from two domains race for the two
     slots left, so four shed. *)
  let running = [ submit gated; submit gated ] in
  gated_started 2;
  let doomed = submit ~deadline_s:0.02 gated in
  Unix.sleepf 0.1;
  let booms = from_two_domains 3 boom in
  open_gated ();
  let first = List.map Serve.Live.await (running @ (doomed :: booms)) in
  (* The two Boom runs failed and tripped its breaker. *)
  let tripped = List.map Serve.Live.await (from_two_domains 1 boom) in
  (* Shut down with two runs blocked and one queued; the queue drains. *)
  let in_flight = [ submit late; submit late ] in
  late_started 2;
  let queued = submit late in
  let stopper = Domain.spawn (fun () -> Serve.Live.shutdown t) in
  Unix.sleepf 0.05;
  open_late ();
  Domain.join stopper;
  let log = first @ tripped @ List.map Serve.Live.await (queued :: in_flight) in
  Alcotest.(check bool) "submit after shutdown raises" true
    (match submit gated with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* 14 submissions; the refused one above is not counted. *)
  let n = 14 in
  Alcotest.(check int) "every handle resolved" n (List.length log);
  Alcotest.(check (pair (float 0.) (float 0.)))
    "each request counted and answered exactly once"
    (float_of_int n, float_of_int n)
    ( family_total "genbase_serve_requests_total",
      family_total "genbase_serve_responses_total" );
  let tally =
    List.map
      (fun l -> (l, count log (fun r -> Outcome.label r = l)))
      [
        "ok"; "failed"; "deadline:queued"; "shed:queue_full";
        "shed:breaker_open";
      ]
  in
  Alcotest.(check (list (pair string int)))
    "dispositions"
    [
      ("ok", 5);
      ("failed", 2);
      ("deadline:queued", 1);
      ("shed:queue_full", 4);
      ("shed:breaker_open", 2);
    ]
    tally;
  Alcotest.(check int) "dispositions sum to submissions" n
    (List.fold_left (fun a (_, k) -> a + k) 0 tally);
  Alcotest.(check bool) "every shed carries a retry-after hint" true
    (List.for_all
       (fun r ->
         match disposition r with
         | Outcome.Shed _ -> r.Outcome.retry_after_s <> None
         | _ -> true)
       log);
  Alcotest.(check int) "budget released" 0 (Gb_par.Budget.used budget);
  (* Breaker state matches the log: an engine tripped iff the log shows
     its fast-fails, and Boom tripped on its [min_samples]-th failure. *)
  let trips = Serve.Live.breaker_trips t in
  Alcotest.(check (list (pair string int)))
    "trips" [ ("Boom", 1); ("Gated", 0); ("Late", 0) ] trips;
  List.iter
    (fun (engine, k) ->
      Alcotest.(check bool) (engine ^ " tripped iff fast-failed") (k > 0)
        (List.exists
           (fun r ->
             r.Outcome.engine = engine
             && disposition r = Outcome.Shed Outcome.Breaker_open)
           log))
    trips;
  Alcotest.(check int) "failures before the trip" breaker.Breaker.min_samples
    (count log (fun r -> disposition r = Outcome.Served Outcome.Failed_))

let suite =
  [
    ("deadline at checkpoint boundary", `Quick, test_deadline_boundary);
    ("deadline expiry in queue", `Quick, test_deadline_in_queue);
    ("burst shedding exact counts", `Quick, test_burst_shedding_exact);
    ("queue policies order work", `Quick, test_sjf_order);
    ("memory admission", `Quick, test_memory_admission);
    ("server deterministic", `Quick, test_server_deterministic);
    ("breaker transitions on sim clock", `Quick, test_breaker_transitions);
    ("breaker reopens on probe failure", `Quick,
     test_breaker_reopens_on_probe_failure);
    ("breaker sheds in server", `Quick, test_breaker_sheds_in_server);
    ("client backoff schedule", `Quick, test_client_next_delay);
    ("cost model sanity", `Quick, test_estimate_sanity);
    ("engine speed classes", `Quick, test_engine_speed_classes);
    ("loadgen deterministic", `Quick, test_loadgen_deterministic);
    ("overload bounded with goodput", `Quick, test_overload_bounded_goodput);
    ("steady scenario is clean", `Quick, test_loadgen_steady_clean);
    ("chaos trips breakers", `Quick, test_loadgen_chaos_trips);
    ("ambient deadline checkpoints", `Quick, test_ambient_deadline);
    ("live path sheds and serves", `Quick, test_live_sheds_and_serves);
    ("trace ids link admit/queue/exec/retry", `Quick, test_trace_linked_spans);
    ("slo alerts deterministic under chaos", `Quick,
     test_slo_chaos_deterministic);
    ("interpolated p99 agrees with exact", `Quick, test_p99_agreement_overload);
    ("admission ladder, hint and head table", `Quick, test_admission_table);
  ]
  @ [
      ("live lane sessions", `Quick, test_live_lane_sessions);
      ("live load span on a miss", `Quick, test_live_load_span);
    ]
  @ List.map QCheck_alcotest.to_alcotest [ test_live_matches_direct ]
