module Sim = Gb_util.Clock.Sim
module Stopwatch = Gb_util.Clock.Stopwatch
module Fault = Gb_fault.Fault
module Retry = Gb_fault.Retry
module Obs = Gb_obs.Obs
module Telemetry = Gb_obs.Telemetry

(* Counters (no-ops while telemetry is disabled). The sim spans
   emitted below land on the simulated-clock track with the node rank as
   the thread id, so Perfetto shows one lane per node. *)
let c_comm_bytes = Telemetry.counter ~help:"byte" "cluster_comm_bytes"
let c_supersteps = Telemetry.counter ~help:"superstep" "cluster_supersteps"
let c_checkpoint_s = Telemetry.counter ~help:"s" "cluster_checkpoint_s"
let c_retries = Telemetry.counter ~help:"retry" "fault_retries"
let c_backoff_s = Telemetry.counter ~help:"s" "fault_backoff_s"
let c_dropped = Telemetry.counter ~help:"message" "fault_messages_dropped"
let c_delayed = Telemetry.counter ~help:"message" "fault_messages_delayed"
let c_speculative = Telemetry.counter ~help:"restart" "fault_speculative_restarts"
let c_crashes = Telemetry.counter ~help:"crash" "fault_crashes_recovered"
let c_wasted_s = Telemetry.counter ~help:"s" "fault_wasted_s"

type recovery_stats = {
  crashes_recovered : int;
  oom_retries : int;
  speculative_restarts : int;
  messages_dropped : int;
  messages_delayed : int;
  wasted_seconds : float;
  checkpoint_seconds : float;
}

let no_recovery =
  {
    crashes_recovered = 0;
    oom_retries = 0;
    speculative_restarts = 0;
    messages_dropped = 0;
    messages_delayed = 0;
    wasted_seconds = 0.;
    checkpoint_seconds = 0.;
  }

(* Acknowledgement timeout before a lost message is retransmitted. *)
let retransmit_timeout_s = 0.01

(* State shipped to the recovery node when no checkpoint size is
   configured (a closure plus partition metadata, not the data block). *)
let default_recovery_bytes = 4096

type t = {
  nodes : int;
  net : Netmodel.t;
  clock : Sim.t;
  mutable comm_bytes : int;
  mutable comm_seconds : float;
  mutable deadline : Gb_util.Deadline.Sim.t;
  mutable compute_speedup : float;
  (* fault injection + recovery *)
  mutable plan : Fault.plan;
  mutable frng : Gb_util.Prng.t;
  mutable step : int;
  mutable ops : int;
  dead : bool array;
  since_ckpt : float array;
  mutable ckpt_every : int; (* 0 = checkpointing off *)
  mutable ckpt_bytes : int;
  mutable task_cost : float option;
  mutable stats : recovery_stats;
}

let create ?(net = Netmodel.default) ~nodes () =
  if nodes < 1 then invalid_arg "Cluster.create: nodes";
  let clock = Sim.create () in
  {
    nodes;
    net;
    clock;
    comm_bytes = 0;
    comm_seconds = 0.;
    deadline = Gb_util.Deadline.Sim.unlimited ~clock;
    compute_speedup = 1.;
    plan = Fault.empty;
    frng = Fault.rng Fault.empty;
    step = 0;
    ops = 0;
    dead = Array.make nodes false;
    since_ckpt = Array.make nodes 0.;
    ckpt_every = 0;
    ckpt_bytes = default_recovery_bytes;
    task_cost = None;
    stats = no_recovery;
  }

let nodes t = t.nodes
let elapsed t = Sim.now t.clock
let comm_bytes t = t.comm_bytes
let comm_seconds t = t.comm_seconds
let check t = Gb_util.Deadline.Sim.check t.deadline

let set_deadline t d =
  t.deadline <- Gb_util.Deadline.Sim.at ~clock:t.clock ~time:d

let set_fault_plan t plan =
  t.plan <- plan;
  t.frng <- Fault.rng plan

let set_checkpoint t ~every ~bytes_per_node =
  if every < 0 || bytes_per_node < 0 then invalid_arg "Cluster.set_checkpoint";
  t.ckpt_every <- every;
  t.ckpt_bytes <- max bytes_per_node default_recovery_bytes

let set_task_cost t c = t.task_cost <- c
let stats t = t.stats
let degraded t = t.stats <> no_recovery

let live_nodes t =
  Array.fold_left (fun n d -> if d then n else n + 1) 0 t.dead

let charge_comm ?(label = "transfer") t ~bytes ~seconds =
  let op = t.ops in
  t.ops <- op + 1;
  let seconds =
    if Fault.dropped t.plan ~op then begin
      (* The payload is lost: wait out the ack timeout, then send again. *)
      t.stats <-
        {
          t.stats with
          messages_dropped = t.stats.messages_dropped + 1;
          wasted_seconds =
            t.stats.wasted_seconds +. seconds +. retransmit_timeout_s;
        };
      Telemetry.add c_dropped 1;
      Telemetry.addf c_wasted_s (seconds +. retransmit_timeout_s);
      (2. *. seconds) +. retransmit_timeout_s
    end
    else seconds
  in
  let seconds =
    let d = Fault.delay t.plan ~op in
    if d > 0. then begin
      t.stats <- { t.stats with messages_delayed = t.stats.messages_delayed + 1 };
      Telemetry.add c_delayed 1;
      seconds +. d
    end
    else seconds
  in
  t.comm_bytes <- t.comm_bytes + bytes;
  t.comm_seconds <- t.comm_seconds +. seconds;
  Telemetry.add c_comm_bytes bytes;
  let t0 = Sim.now t.clock in
  Sim.advance t.clock seconds;
  Obs.Span.emit ~cat:"comm" ~name:("comm:" ^ label)
    ~attrs:
      [
        ("bytes", Obs.Int bytes);
        ("latency_s", Obs.Float t.net.Netmodel.latency_s);
        ("bandwidth_bps", Obs.Float t.net.Netmodel.bandwidth_bps);
      ]
    ~t0 ~t1:(Sim.now t.clock) ();
  check t

(* A crash at superstep [step] loses everything the node computed since
   the last checkpoint; a surviving node re-executes that work (charged
   serially — the survivor cannot overlap it with new supersteps) after
   fetching the dead node's last checkpointed state. *)
let handle_crashes t step =
  for node = 0 to t.nodes - 1 do
    if
      (not t.dead.(node))
      && Fault.crash_at t.plan ~node ~superstep:step
      && live_nodes t > 1
    then begin
      t.dead.(node) <- true;
      let redo = t.since_ckpt.(node) in
      t.since_ckpt.(node) <- 0.;
      t.stats <-
        {
          t.stats with
          crashes_recovered = t.stats.crashes_recovered + 1;
          wasted_seconds = t.stats.wasted_seconds +. redo;
        };
      Telemetry.add c_crashes 1;
      Telemetry.addf c_wasted_s redo;
      let t0 = Sim.now t.clock in
      Sim.advance t.clock redo;
      charge_comm ~label:"checkpoint-fetch" t ~bytes:t.ckpt_bytes
        ~seconds:(Netmodel.transfer_time t.net ~bytes:t.ckpt_bytes);
      Obs.Span.emit ~cat:"recovery" ~name:"recovery:crash" ~tid:(node + 1)
        ~attrs:[ ("superstep", Obs.Int step); ("redo_s", Obs.Float redo) ]
        ~t0 ~t1:(Sim.now t.clock) ()
    end
  done;
  if live_nodes t = 0 then
    raise (Fault.Node_lost "Cluster: every node has crashed")

let maybe_checkpoint t step =
  if t.ckpt_every > 0 && (step + 1) mod t.ckpt_every = 0 then begin
    (* Every live node writes its state to replicated storage in
       parallel; the superstep stalls for one transfer. *)
    let secs = Netmodel.transfer_time t.net ~bytes:t.ckpt_bytes in
    let t0 = Sim.now t.clock in
    Sim.advance t.clock secs;
    t.stats <-
      { t.stats with checkpoint_seconds = t.stats.checkpoint_seconds +. secs };
    Telemetry.addf c_checkpoint_s secs;
    Obs.Span.emit ~cat:"checkpoint" ~name:"checkpoint"
      ~attrs:
        [ ("superstep", Obs.Int step); ("bytes_per_node", Obs.Int t.ckpt_bytes) ]
      ~t0 ~t1:(Sim.now t.clock) ();
    Array.fill t.since_ckpt 0 t.nodes 0.
  end

let superstep_scaled t ~speedup f =
  check t;
  let step = t.step in
  t.step <- step + 1;
  let step_t0 = Sim.now t.clock in
  handle_crashes t step;
  let tasks_t0 = Sim.now t.clock in
  let scale = speedup *. t.compute_speedup in
  let busy = Array.make t.nodes 0. in
  let results = Array.make t.nodes None in
  for node = 0 to t.nodes - 1 do
    let r, dt =
      match t.task_cost with
      | Some c -> (f node, c)
      | None -> Stopwatch.time (fun () -> f node)
    in
    results.(node) <- Some r;
    (* Floor at 1ns: a measured 0 (below clock resolution) would make a
       straggler's endured stall vanish ([slowed -. dt = 0.]), so whether
       the run reports as degraded would depend on timer granularity. *)
    let dt = Float.max (dt /. scale) 1e-9 in
    (* A dead node's task runs on the least-loaded survivor. *)
    let executor =
      if not t.dead.(node) then node
      else begin
        let best = ref (-1) in
        for i = 0 to t.nodes - 1 do
          if (not t.dead.(i)) && (!best < 0 || busy.(i) < busy.(!best)) then
            best := i
        done;
        !best
      end
    in
    (* Straggler slowdown, capped by speculative re-execution: when a
       backup copy on a healthy node (input transfer + one clean run)
       beats waiting for the straggler, the backup's finish time counts
       and the straggling attempt is wasted work. *)
    let dt =
      let slow = Fault.slowdown t.plan ~node ~superstep:step in
      if slow <= 1. then dt
      else begin
        let slowed = dt *. slow in
        let backup =
          dt +. Netmodel.transfer_time t.net ~bytes:t.ckpt_bytes
        in
        if backup < slowed && live_nodes t > 1 then begin
          t.stats <-
            {
              t.stats with
              speculative_restarts = t.stats.speculative_restarts + 1;
              wasted_seconds = t.stats.wasted_seconds +. dt;
            };
          Telemetry.add c_speculative 1;
          Telemetry.addf c_wasted_s dt;
          Obs.Span.instant ~track:Obs.Sim ~tid:(node + 1) ~ts:tasks_t0
            ~name:"speculative-restart"
            ~attrs:[ ("superstep", Obs.Int step) ]
            ();
          backup
        end
        else begin
          (* No backup worth launching (or nobody to run it): the stall
             is endured, but it is still fault-induced overhead. *)
          t.stats <-
            {
              t.stats with
              wasted_seconds = t.stats.wasted_seconds +. (slowed -. dt);
            };
          Telemetry.addf c_wasted_s (slowed -. dt);
          slowed
        end
      end
    in
    (* Transient memory failures: each failed attempt runs (and is
       thrown away), then backs off before retrying; past the retry
       budget the failure is permanent. *)
    let dt =
      let failures = Fault.oom_failures t.plan ~node ~superstep:step in
      if failures = 0 then dt
      else if failures >= Retry.default.Retry.max_attempts then
        raise
          (Fault.Injected_oom
             (Printf.sprintf
                "node %d superstep %d: memory allocation failed %d times"
                node step failures))
      else begin
        let backoff = ref 0. in
        for attempt = 1 to failures do
          backoff :=
            !backoff +. Retry.delay_for Retry.default ~rng:t.frng ~attempt
        done;
        t.stats <-
          {
            t.stats with
            oom_retries = t.stats.oom_retries + failures;
            wasted_seconds =
              t.stats.wasted_seconds
              +. (dt *. float_of_int failures)
              +. !backoff;
          };
        Telemetry.add c_retries failures;
        Telemetry.addf c_backoff_s !backoff;
        Telemetry.addf c_wasted_s ((dt *. float_of_int failures) +. !backoff);
        Obs.Span.instant ~track:Obs.Sim ~tid:(node + 1) ~ts:tasks_t0
          ~name:"oom-retry"
          ~attrs:
            [ ("superstep", Obs.Int step); ("failures", Obs.Int failures) ]
          ();
        (dt *. float_of_int (failures + 1)) +. !backoff
      end
    in
    busy.(executor) <- busy.(executor) +. dt;
    t.since_ckpt.(executor) <- t.since_ckpt.(executor) +. dt
  done;
  let worst = Array.fold_left Float.max 0. busy in
  Sim.advance t.clock worst;
  Telemetry.add c_supersteps 1;
  if Obs.enabled () then
    (* Per-node task spans: every node's work starts when the compute
       phase does and lasts that executor's accumulated busy time. *)
    for e = 0 to t.nodes - 1 do
      if busy.(e) > 0. then
        Obs.Span.emit ~cat:"task"
          ~name:(Printf.sprintf "task:step%d" step)
          ~tid:(e + 1)
          ~attrs:[ ("superstep", Obs.Int step) ]
          ~t0:tasks_t0 ~t1:(tasks_t0 +. busy.(e)) ()
    done;
  maybe_checkpoint t step;
  Obs.Span.emit ~cat:"superstep"
    ~name:(Printf.sprintf "superstep:%d" step)
    ~attrs:[ ("live_nodes", Obs.Int (live_nodes t)) ]
    ~t0:step_t0 ~t1:(Sim.now t.clock) ();
  check t;
  Array.map
    (fun r -> match r with Some r -> r | None -> assert false)
    results

let superstep t f = superstep_scaled t ~speedup:1. f

let set_compute_speedup t s =
  if s <= 0. then invalid_arg "Cluster.set_compute_speedup";
  t.compute_speedup <- s

let allreduce_sum t parts =
  if Array.length parts <> t.nodes then invalid_arg "Cluster.allreduce_sum";
  let n = Array.length parts.(0) in
  Array.iter
    (fun p ->
      if Array.length p <> n then invalid_arg "Cluster.allreduce_sum: ragged")
    parts;
  let out = Array.make n 0. in
  Array.iter (fun p -> Gb_linalg.Vec.axpy 1. p out) parts;
  let bytes = 8 * n in
  charge_comm ~label:"allreduce" t ~bytes
    ~seconds:(Netmodel.allreduce_time t.net ~nodes:t.nodes ~bytes);
  out

let allreduce_mat t parts =
  if Array.length parts <> t.nodes then invalid_arg "Cluster.allreduce_mat";
  let first = parts.(0) in
  let acc = Gb_linalg.Mat.copy first in
  for node = 1 to t.nodes - 1 do
    let p = parts.(node) in
    Gb_linalg.Mat.iteri
      (fun i j v ->
        Gb_linalg.Mat.unsafe_set acc i j (Gb_linalg.Mat.unsafe_get acc i j +. v))
      p
  done;
  let rows, cols = Gb_linalg.Mat.dims first in
  let bytes = 8 * rows * cols in
  charge_comm ~label:"allreduce" t ~bytes
    ~seconds:(Netmodel.allreduce_time t.net ~nodes:t.nodes ~bytes);
  acc

let broadcast t ~bytes =
  charge_comm ~label:"broadcast" t ~bytes
    ~seconds:(Netmodel.broadcast_time t.net ~nodes:t.nodes ~bytes)

let gather t ~bytes_per_node =
  let bytes = bytes_per_node * (t.nodes - 1) in
  charge_comm ~label:"gather" t ~bytes
    ~seconds:
      (if t.nodes <= 1 then 0.
       else
         float_of_int (t.nodes - 1) *. Netmodel.transfer_time t.net ~bytes:bytes_per_node)

let shuffle t ~total_bytes =
  charge_comm ~label:"shuffle" t ~bytes:total_bytes
    ~seconds:(Netmodel.shuffle_time t.net ~nodes:t.nodes ~total_bytes)

let advance t dt =
  Sim.advance t.clock dt;
  check t
