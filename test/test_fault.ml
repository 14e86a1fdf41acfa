open Genbase
module Fault = Gb_fault.Fault
module Retry = Gb_fault.Retry
module Cluster = Gb_cluster.Cluster
module Mr = Gb_mapreduce.Mr
module Spec = Gb_datagen.Spec

let tiny = Dataset.generate (Spec.custom ~genes:60 ~patients:160)

(* --- fault plans --- *)

let dense_scatter seed =
  Fault.scatter ~seed ~nodes:4 ~supersteps:16 ~crash_p:0.1 ~straggler_p:0.1
    ~oom_p:0.1 ~comm_ops:32 ~drop_p:0.1 ~delay_p:0.1 ~jobs:8 ~task_fail_p:0.3
    ()

let test_scatter_deterministic () =
  Alcotest.(check bool) "same seed, same plan"
    (dense_scatter 7L = dense_scatter 7L)
    true;
  Alcotest.(check bool) "different seed, different plan"
    (dense_scatter 7L = dense_scatter 8L)
    false

(* Enabling the message-fault classes must not reshuffle where the compute
   faults land: each grid cell consumes exactly one uniform draw. *)
let test_scatter_independent () =
  let base = Fault.scatter ~seed:7L ~nodes:4 ~supersteps:16 ~crash_p:0.08 () in
  let noisy =
    Fault.scatter ~seed:7L ~nodes:4 ~supersteps:16 ~crash_p:0.08 ~comm_ops:64
      ~drop_p:0.3 ~delay_p:0.3 ~jobs:16 ~task_fail_p:0.5 ()
  in
  for superstep = 0 to 15 do
    for node = 0 to 3 do
      Alcotest.(check bool) "crash placement unchanged"
        (Fault.crash_at base ~node ~superstep)
        (Fault.crash_at noisy ~node ~superstep)
    done
  done

let test_plan_accessors () =
  let p =
    Fault.of_events ~seed:1L
      [
        Fault.Node_crash { node = 1; superstep = 2 };
        Fault.Straggler { node = 0; superstep = 0; factor = 3. };
        Fault.Straggler { node = 0; superstep = 0; factor = 2. };
        Fault.Transient_oom { node = 2; superstep = 1; failures = 2 };
        Fault.Message_drop { op = 4 };
        Fault.Message_delay { op = 5; seconds = 0.25 };
        Fault.Task_fail { job = 3; failures = 1 };
      ]
  in
  Alcotest.(check bool) "crash" true (Fault.crash_at p ~node:1 ~superstep:2);
  Alcotest.(check bool) "no crash" false (Fault.crash_at p ~node:1 ~superstep:3);
  Alcotest.(check (float 0.)) "slowdowns multiply" 6.
    (Fault.slowdown p ~node:0 ~superstep:0);
  Alcotest.(check (float 0.)) "no slowdown" 1.
    (Fault.slowdown p ~node:1 ~superstep:0);
  Alcotest.(check int) "oom failures" 2 (Fault.oom_failures p ~node:2 ~superstep:1);
  Alcotest.(check bool) "dropped" true (Fault.dropped p ~op:4);
  Alcotest.(check (float 0.)) "delay" 0.25 (Fault.delay p ~op:5);
  Alcotest.(check (float 0.)) "no delay" 0. (Fault.delay p ~op:4);
  Alcotest.(check int) "task failures" 1 (Fault.task_failures p ~job:3);
  Alcotest.(check bool) "empty" true (Fault.is_empty Fault.empty)

(* --- retry --- *)

let test_backoff_bounds () =
  let rng = Gb_util.Prng.create 11L in
  let p = Retry.default in
  for attempt = 1 to 8 do
    let d =
      Float.min p.Retry.max_delay_s
        (p.Retry.base_delay_s
        *. (p.Retry.multiplier ** float_of_int (attempt - 1)))
    in
    let delay = Retry.delay_for p ~rng ~attempt in
    Alcotest.(check bool) "at least the deterministic part" true (delay >= d);
    Alcotest.(check bool) "at most jittered" true
      (delay <= d *. (1. +. p.Retry.jitter) +. 1e-12)
  done

let test_retry_succeeds_and_charges () =
  let rng = Gb_util.Prng.create 12L in
  let charged = ref 0. in
  let out =
    Retry.run ~rng
      ~charge:(fun s -> charged := !charged +. s)
      (fun ~attempt -> if attempt < 3 then failwith "transient" else 42)
  in
  Alcotest.(check int) "value" 42 out.Retry.value;
  Alcotest.(check int) "attempts" 3 out.Retry.attempts;
  Alcotest.(check (float 1e-12)) "charged = backoff" out.Retry.backoff_s !charged;
  Alcotest.(check bool) "two delays charged" true (!charged > 0.)

let test_retry_gives_up () =
  let rng = Gb_util.Prng.create 13L in
  let calls = ref 0 in
  Alcotest.check_raises "re-raises after budget" (Failure "always") (fun () ->
      ignore
        (Retry.run ~rng
           ~charge:(fun _ -> ())
           (fun ~attempt:_ ->
             incr calls;
             failwith "always")));
  Alcotest.(check int) "max attempts" Retry.default.Retry.max_attempts !calls

let test_retry_never_retries_timeout () =
  let rng = Gb_util.Prng.create 14L in
  let calls = ref 0 in
  Alcotest.check_raises "timeout propagates" Gb_util.Deadline.Timeout
    (fun () ->
      ignore
        (Retry.run ~rng
           ~charge:(fun _ -> ())
           (fun ~attempt:_ ->
             incr calls;
             raise Gb_util.Deadline.Timeout)));
  Alcotest.(check int) "single attempt" 1 !calls

(* Stateless jitter: a pure function of (key, attempt), so one client's
   retry schedule replays identically no matter what other traffic
   interleaved — the property the serving layer's deterministic load
   tests rest on. *)
let test_det_jitter () =
  let p = Retry.default in
  for attempt = 1 to 8 do
    let d =
      Float.min p.Retry.max_delay_s
        (p.Retry.base_delay_s
        *. (p.Retry.multiplier ** float_of_int (attempt - 1)))
    in
    List.iter
      (fun key ->
        let delay = Retry.delay_for_det p ~key ~attempt in
        Alcotest.(check (float 0.)) "pure function of (key, attempt)" delay
          (Retry.delay_for_det p ~key ~attempt);
        Alcotest.(check bool) "at least the deterministic part" true
          (delay >= d);
        Alcotest.(check bool) "at most jittered" true
          (delay <= d *. (1. +. p.Retry.jitter) +. 1e-12))
      [ 0; 1; 17; 123456 ]
  done;
  Alcotest.(check bool) "different keys draw different jitter" true
    (Retry.delay_for_det p ~key:1 ~attempt:1
    <> Retry.delay_for_det p ~key:2 ~attempt:1)

(* Total-deadline cutoff: when the next backoff cannot fit in what is
   left of the deadline, the failure surfaces immediately instead of
   charging a sleep that could only end in a timeout. *)
let test_retry_remaining_cutoff () =
  let rng = Gb_util.Prng.create 15L in
  let charged = ref 0. in
  let calls = ref 0 in
  Alcotest.check_raises "fails fast once the budget cannot fit a backoff"
    (Failure "transient") (fun () ->
      ignore
        (Retry.run ~rng
           ~charge:(fun s -> charged := !charged +. s)
           ~remaining:(fun () -> Retry.default.Retry.base_delay_s /. 2.)
           (fun ~attempt:_ ->
             incr calls;
             failwith "transient")));
  Alcotest.(check int) "no second attempt" 1 !calls;
  Alcotest.(check (float 0.)) "no backoff charged" 0. !charged;
  (* With room for the backoff, the retry proceeds as usual. *)
  let out =
    Retry.run ~rng
      ~charge:(fun s -> charged := !charged +. s)
      ~remaining:(fun () -> 1e9)
      (fun ~attempt -> if attempt < 2 then failwith "transient" else "ok")
  in
  Alcotest.(check string) "recovered under a loose budget" "ok" out.Retry.value

(* --- cluster fault tolerance --- *)

(* Virtual task costs make the simulated clock a pure function of the
   plan: two identical runs must agree bit-for-bit. *)
let crash_run () =
  let c = Cluster.create ~nodes:4 () in
  Cluster.set_task_cost c (Some 0.01);
  Cluster.set_checkpoint c ~every:2 ~bytes_per_node:4096;
  (* Checkpoints land after supersteps 1, 3, 5; a crash at superstep 3 has
     exactly one un-checkpointed superstep of work to redo. *)
  Cluster.set_fault_plan c
    (Fault.of_events ~seed:3L [ Fault.Node_crash { node = 1; superstep = 3 } ]);
  let last = ref [||] in
  for _ = 0 to 5 do
    last := Cluster.superstep c (fun node -> node * 10)
  done;
  (c, !last)

let test_crash_recovery_deterministic () =
  let c1, r1 = crash_run () in
  let c2, r2 = crash_run () in
  Alcotest.(check (array int)) "dead node's task re-executed on a survivor"
    [| 0; 10; 20; 30 |] r1;
  Alcotest.(check (array int)) "replay results" r1 r2;
  Alcotest.(check (float 0.)) "bit-identical simulated seconds"
    (Cluster.elapsed c1) (Cluster.elapsed c2);
  Alcotest.(check bool) "same stats" (Cluster.stats c1 = Cluster.stats c2) true;
  Alcotest.(check int) "one crash recovered" 1
    (Cluster.stats c1).Cluster.crashes_recovered;
  Alcotest.(check int) "three survivors" 3 (Cluster.live_nodes c1);
  Alcotest.(check bool) "degraded" true (Cluster.degraded c1);
  Alcotest.(check bool) "redone work accounted" true
    ((Cluster.stats c1).Cluster.wasted_seconds > 0.)

let test_last_survivor_never_dies () =
  let c = Cluster.create ~nodes:1 () in
  Cluster.set_task_cost c (Some 0.01);
  Cluster.set_fault_plan c
    (Fault.of_events [ Fault.Node_crash { node = 0; superstep = 0 } ]);
  let r = Cluster.superstep c (fun node -> node + 1) in
  Alcotest.(check (array int)) "still runs" [| 1 |] r;
  Alcotest.(check int) "no recovery possible" 0
    (Cluster.stats c).Cluster.crashes_recovered;
  Alcotest.(check int) "alive" 1 (Cluster.live_nodes c)

let test_straggler_speculation () =
  let c = Cluster.create ~nodes:2 () in
  Cluster.set_task_cost c (Some 0.05);
  Cluster.set_fault_plan c
    (Fault.of_events
       [ Fault.Straggler { node = 0; superstep = 0; factor = 1000. } ]);
  ignore (Cluster.superstep c (fun node -> node));
  Alcotest.(check bool) "backup beats waiting 50 s" true
    (Cluster.elapsed c < 1.);
  Alcotest.(check int) "speculative restart" 1
    (Cluster.stats c).Cluster.speculative_restarts;
  (* With no healthy peer the slowdown must be paid in full. *)
  let c1 = Cluster.create ~nodes:1 () in
  Cluster.set_task_cost c1 (Some 0.05);
  Cluster.set_fault_plan c1
    (Fault.of_events
       [ Fault.Straggler { node = 0; superstep = 0; factor = 1000. } ]);
  ignore (Cluster.superstep c1 (fun node -> node));
  Alcotest.(check bool) "no backup, full stall" true (Cluster.elapsed c1 >= 50.);
  Alcotest.(check int) "no speculation" 0
    (Cluster.stats c1).Cluster.speculative_restarts

let test_oom_retry_and_escalation () =
  let c = Cluster.create ~nodes:2 () in
  Cluster.set_task_cost c (Some 0.01);
  Cluster.set_fault_plan c
    (Fault.of_events
       [ Fault.Transient_oom { node = 0; superstep = 0; failures = 2 } ]);
  ignore (Cluster.superstep c (fun node -> node));
  Alcotest.(check int) "two retries" 2 (Cluster.stats c).Cluster.oom_retries;
  Alcotest.(check bool) "failed attempts and backoff charged" true
    (Cluster.elapsed c > 0.02);
  let c2 = Cluster.create ~nodes:2 () in
  Cluster.set_task_cost c2 (Some 0.01);
  Cluster.set_fault_plan c2
    (Fault.of_events
       [ Fault.Transient_oom { node = 0; superstep = 0; failures = 99 } ]);
  Alcotest.(check bool) "past the retry budget escalates" true
    (try
       ignore (Cluster.superstep c2 (fun node -> node));
       false
     with Fault.Injected_oom _ -> true)

let test_message_faults () =
  let base = Cluster.create ~nodes:2 () in
  Cluster.broadcast base ~bytes:1000;
  Cluster.broadcast base ~bytes:1000;
  let c = Cluster.create ~nodes:2 () in
  Cluster.set_fault_plan c
    (Fault.of_events
       [ Fault.Message_drop { op = 0 }; Fault.Message_delay { op = 1; seconds = 0.5 } ]);
  Cluster.broadcast c ~bytes:1000;
  Cluster.broadcast c ~bytes:1000;
  Alcotest.(check int) "drop counted" 1
    (Cluster.stats c).Cluster.messages_dropped;
  Alcotest.(check int) "delay counted" 1
    (Cluster.stats c).Cluster.messages_delayed;
  Alcotest.(check bool) "retransmit + stall charged" true
    (Cluster.elapsed c > Cluster.elapsed base +. 0.5)

let wasted_with ~every =
  let c = Cluster.create ~nodes:2 () in
  Cluster.set_task_cost c (Some 0.02);
  Cluster.set_checkpoint c ~every ~bytes_per_node:4096;
  Cluster.set_fault_plan c
    (Fault.of_events [ Fault.Node_crash { node = 1; superstep = 5 } ]);
  for _ = 0 to 7 do
    ignore (Cluster.superstep c (fun node -> node))
  done;
  (Cluster.stats c).Cluster.wasted_seconds

let test_checkpoint_limits_redo () =
  let none = wasted_with ~every:0 in
  let frequent = wasted_with ~every:2 in
  Alcotest.(check bool) "checkpointing bounds lost work" true
    (frequent < none);
  Alcotest.(check (float 1e-9)) "only work since last checkpoint redone"
    0.02 frequent

let test_sim_deadline_mid_superstep () =
  let c = Cluster.create ~nodes:1 () in
  Cluster.set_task_cost c (Some 0.2);
  Cluster.set_deadline c 0.1;
  Alcotest.check_raises "fires when the step lands past the deadline"
    Gb_util.Deadline.Timeout (fun () ->
      ignore (Cluster.superstep c (fun node -> node)))

(* --- engine hardening --- *)

let bad_engine exn =
  {
    Engine.name = "bad";
    kind = `Single_node;
    supports = (fun _ -> true);
    prepare = (fun _ _ ~params:_ ~timeout_s:_ -> raise exn);
  }

let test_engine_run_catch_all () =
  (match
     Engine.run (bad_engine Division_by_zero) tiny Query.Q1_regression
       ~timeout_s:1. ()
   with
  | Engine.Errored msg ->
    Alcotest.(check string) "message" "Division_by_zero" msg
  | o -> Alcotest.failf "expected Errored, got %a" Engine.pp_outcome o);
  (match
     Engine.run
       (bad_engine (Fault.Injected_oom "node 0"))
       tiny Query.Q1_regression ~timeout_s:1. ()
   with
  | Engine.Out_of_memory -> ()
  | o -> Alcotest.failf "expected Out_of_memory, got %a" Engine.pp_outcome o);
  match
    Engine.run
      (bad_engine (Mr.Job_failed "job 0"))
      tiny Query.Q1_regression ~timeout_s:1. ()
  with
  | Engine.Errored _ -> ()
  | o -> Alcotest.failf "expected Errored, got %a" Engine.pp_outcome o

(* --- MapReduce task retry --- *)

let test_mr_task_retry () =
  let mr = Mr.create ~nodes:2 () in
  Mr.set_fault_plan mr
    (Fault.of_events [ Fault.Task_fail { job = 0; failures = 2 } ]);
  let out = Mr.map_only mr ~name:"echo" ~mapper:(fun l -> [ l ]) [ "a"; "b" ] in
  Alcotest.(check (list string)) "output intact" [ "a"; "b" ] out;
  Alcotest.(check int) "two re-attempts" 2 (Mr.task_retries mr);
  Alcotest.(check bool) "re-attempts charged" true (Mr.wasted_seconds mr > 0.)

let test_mr_job_failed () =
  let mr = Mr.create ~nodes:2 () in
  Mr.set_fault_plan mr
    (Fault.of_events [ Fault.Task_fail { job = 0; failures = 99 } ]);
  Alcotest.(check bool) "JobTracker gives up" true
    (try
       ignore (Mr.map_only mr ~name:"echo" ~mapper:(fun l -> [ l ]) [ "a" ]);
       false
     with Mr.Job_failed _ -> true)

(* --- harness under faults --- *)

let status c =
  match c.Harness.outcome with
  | Engine.Completed _ -> "ok"
  | Engine.Degraded _ -> "degraded"
  | Engine.Timed_out -> "timeout"
  | Engine.Out_of_memory -> "oom"
  | Engine.Errored _ -> "error"
  | Engine.Unsupported -> "unsupported"

let regression_of c =
  match Engine.payload_of c.Harness.outcome with
  | Some (Engine.Regression r) -> (r.intercept, r.r2)
  | _ -> Alcotest.fail "expected a regression payload"

let test_grid_mixed_outcomes () =
  let crashy =
    Fault.of_events ~seed:5L [ Fault.Node_crash { node = 0; superstep = 0 } ]
  in
  let doomed = Fault.of_events [ Fault.Task_fail { job = 0; failures = 99 } ] in
  let cells =
    List.map
      (fun e -> Harness.run_cell e tiny Query.Q1_regression ~timeout_s:60.)
      [
        Engine_multinode.pbdr ~nodes:2 ();
        Engine_multinode.pbdr ~fault:crashy ~nodes:2 ();
        Engine_hadoop.engine_multinode ~fault:doomed ~nodes:2 ();
      ]
  in
  Alcotest.(check (list string))
    "empty plan completes, crash degrades, exhausted retries error"
    [ "ok"; "degraded"; "error" ] (List.map status cells);
  (* Recovery must not change the answer: the degraded run's payload
     matches the fault-free one. *)
  let clean_intercept, clean_r2 = regression_of (List.nth cells 0) in
  let degraded_intercept, degraded_r2 = regression_of (List.nth cells 1) in
  Alcotest.(check (float 1e-9)) "same intercept" clean_intercept
    degraded_intercept;
  Alcotest.(check (float 1e-9)) "same r2" clean_r2 degraded_r2;
  let csv = Harness.to_csv cells in
  List.iter
    (fun line ->
      Alcotest.(check int) "csv has recovery columns" 14
        (List.length (String.split_on_char ',' line)))
    (List.filter (fun l -> l <> "") (String.split_on_char '\n' csv));
  let table = Harness.availability cells in
  Alcotest.(check bool) "availability mentions every engine" true
    (Astring_contains.contains table "pbdR"
    && Astring_contains.contains table "Hadoop")

let test_chaos_plan_deterministic () =
  let d = Harness.default_chaos in
  let p1 = Harness.chaos_plan d ~engine:"pbdR" ~nodes:2 in
  let p2 = Harness.chaos_plan d ~engine:"pbdR" ~nodes:2 in
  let other = Harness.chaos_plan d ~engine:"SciDB" ~nodes:2 in
  Alcotest.(check bool) "pure function of config" (p1 = p2) true;
  Alcotest.(check bool) "engines get distinct placements" (p1 = other) false

let suite =
  [
    ("scatter deterministic", `Quick, test_scatter_deterministic);
    ("scatter classes independent", `Quick, test_scatter_independent);
    ("plan accessors", `Quick, test_plan_accessors);
    ("backoff bounds", `Quick, test_backoff_bounds);
    ("retry succeeds and charges", `Quick, test_retry_succeeds_and_charges);
    ("retry gives up", `Quick, test_retry_gives_up);
    ("retry never retries timeout", `Quick, test_retry_never_retries_timeout);
    ("deterministic jitter", `Quick, test_det_jitter);
    ("retry total-deadline cutoff", `Quick, test_retry_remaining_cutoff);
    ("crash recovery deterministic", `Quick, test_crash_recovery_deterministic);
    ("last survivor never dies", `Quick, test_last_survivor_never_dies);
    ("straggler speculation", `Quick, test_straggler_speculation);
    ("oom retry and escalation", `Quick, test_oom_retry_and_escalation);
    ("message faults", `Quick, test_message_faults);
    ("checkpoint limits redo", `Quick, test_checkpoint_limits_redo);
    ("sim deadline mid-superstep", `Quick, test_sim_deadline_mid_superstep);
    ("engine run catch-all", `Quick, test_engine_run_catch_all);
    ("mr task retry", `Quick, test_mr_task_retry);
    ("mr job failed", `Quick, test_mr_job_failed);
    ("grid mixed outcomes", `Quick, test_grid_mixed_outcomes);
    ("chaos plan deterministic", `Quick, test_chaos_plan_deterministic);
  ]
