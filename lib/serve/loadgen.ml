(* Deterministic load generator: synthetic client populations driving
   the simulated server through named overload scenarios.

   Open-loop traffic is a (possibly time-modulated) Poisson process —
   arrivals do not slow down when the server degrades, which is exactly
   what makes overload dangerous. Closed-loop clients submit, wait for
   the response, think, and submit again, so their offered load is
   self-limiting. Both kinds retry shed responses through the
   {!Client} backoff schedule, re-entering the server as fresh arrival
   events. Everything draws from SplitMix64 streams derived from one
   seed, so a scenario replays bit-for-bit: same seed, same sheds, same
   percentiles. *)

module Spec = Gb_datagen.Spec
module Prng = Gb_util.Prng
module Query = Genbase.Query
module Descriptive = Gb_stats.Descriptive

type shape =
  | Steady of float
  | Bursty of { on_load : float; off_load : float; period : float; duty : float }

type scenario = {
  sc_name : string;
  descr : string;
  shape : shape;
  closed_loop : int;
  fail_p : float;
}

(* Single source of truth for scenario names: the CLI derives both its
   usage text and its argument validation from this list. *)
let scenarios =
  [
    {
      sc_name = "steady";
      descr = "open-loop Poisson at 0.6x capacity, fault-free";
      shape = Steady 0.6;
      closed_loop = 0;
      fail_p = 0.;
    };
    {
      sc_name = "closed";
      descr = "32 closed-loop clients with think time, fault-free";
      shape = Steady 0.;
      closed_loop = 32;
      fail_p = 0.;
    };
    {
      sc_name = "burst";
      descr = "on/off bursts: 4x capacity for 30% of each period, 0.25x between";
      shape = Bursty { on_load = 4.; off_load = 0.25; period = 20.; duty = 0.3 };
      closed_loop = 0;
      fail_p = 0.;
    };
    {
      sc_name = "overload";
      descr = "sustained open-loop overload at 4x capacity";
      shape = Steady 4.;
      closed_loop = 0;
      fail_p = 0.;
    };
    {
      sc_name = "chaos";
      descr = "4x bursts composed with a fault plan failing ~35% of executions";
      shape = Bursty { on_load = 4.; off_load = 0.5; period = 16.; duty = 0.4 };
      closed_loop = 0;
      fail_p = 0.35;
    };
  ]

let find_scenario name =
  match
    List.find_opt
      (fun s -> s.sc_name = String.lowercase_ascii (String.trim name))
      scenarios
  with
  | Some s -> Ok s
  | None ->
    Error
      (Printf.sprintf "unknown scenario %S (expected one of: %s)" name
         (String.concat ", " (List.map (fun s -> s.sc_name) scenarios)))

type config = {
  scenario : scenario;
  seed : int64;
  duration : float;  (** arrival horizon, in units of the mean service time *)
  size : Spec.size;
  engines : string list;
  lanes : int;
  queue_depth : int;
  policy : Admission.policy;
  mem_bytes : int option;  (** [None]: lanes x the largest working set *)
  deadline_factor : float;  (** deadline = factor x mean service time *)
  retry_budget_factor : float;  (** client budget = factor x deadline *)
  client : Client.policy;
  breaker : Breaker.config;
}

let default_engines = [ "Column store + UDFs"; "SciDB"; "Vanilla R" ]

let default_config scenario =
  {
    scenario;
    seed = 42L;
    duration = 60.;
    size = Spec.Small;
    engines = default_engines;
    lanes = 4;
    queue_depth = 16;
    policy = Admission.Fifo;
    mem_bytes = None;
    deadline_factor = 8.;
    retry_budget_factor = 3.;
    client = Client.default_policy;
    breaker = Breaker.default_config;
  }

(* The workload mix: every (query, engine) pair at the configured
   dataset size, with its cost-model service time and working set. *)
type job = { j_query : Query.t; j_engine : string; j_service : float; j_bytes : int }

let jobs_of cfg =
  let genes, patients = Spec.paper_dims cfg.size in
  List.concat_map
    (fun q ->
      List.map
        (fun engine ->
          {
            j_query = q;
            j_engine = engine;
            j_service = Estimate.service_s ~engine ~genes ~patients q;
            j_bytes = Estimate.bytes ~genes ~patients q;
          })
        cfg.engines)
    Query.all

let mean_service jobs =
  List.fold_left (fun a j -> a +. j.j_service) 0. jobs
  /. float_of_int (List.length jobs)

let server_config cfg jobs =
  let max_bytes = List.fold_left (fun a j -> max a j.j_bytes) 1 jobs in
  {
    Server.lanes = cfg.lanes;
    queue_depth = cfg.queue_depth;
    policy = cfg.policy;
    mem_bytes = Option.value cfg.mem_bytes ~default:(cfg.lanes * max_bytes);
    breaker = cfg.breaker;
  }

type summary = {
  scenario : string;
  size : string;
  offered : int;  (** logical queries (first attempts) *)
  attempts : int;  (** submissions including retries *)
  served_ok : int;
  served_failed : int;
  shed_queue : int;
  shed_mem : int;
  shed_breaker : int;
  expired_queued : int;
  expired_running : int;
  retries : int;
  horizon_s : float;  (** last finish instant on the sim clock *)
  goodput_qps : float;  (** served-ok completions per sim second *)
  p50_s : float;  (** latency percentiles over served responses *)
  p99_s : float;
  p999_s : float;
  max_queue_len : int;
  max_mem_used : int;
  breaker_trips : int;
}

let quantiles (xs : float list) =
  match xs with
  | [] -> (0., 0., 0.)
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    ( Descriptive.quantile a 0.5,
      Descriptive.quantile a 0.99,
      Descriptive.quantile a 0.999 )

let summarize (cfg : config) ~retries (responses : Outcome.response list)
    (stats : Server.stats) =
  let count p = List.length (List.filter p responses) in
  let is d (r : Outcome.response) = r.Outcome.disposition = d in
  let served =
    List.filter
      (fun (r : Outcome.response) ->
        match r.Outcome.disposition with Outcome.Served _ -> true | _ -> false)
      responses
  in
  let p50, p99, p999 = quantiles (List.map Outcome.latency_s served) in
  let horizon =
    List.fold_left
      (fun a (r : Outcome.response) -> Float.max a r.Outcome.finished_s)
      0. responses
  in
  let served_ok = count (fun r -> Outcome.goodput r) in
  ({
    scenario = cfg.scenario.sc_name;
    size = Spec.label cfg.size;
    offered = count (fun (r : Outcome.response) -> r.Outcome.attempt = 1);
    attempts = List.length responses;
    served_ok;
    served_failed = count (is (Outcome.Served Outcome.Failed_));
    shed_queue = count (is (Outcome.Shed Outcome.Queue_full));
    shed_mem = count (is (Outcome.Shed Outcome.Memory));
    shed_breaker = count (is (Outcome.Shed Outcome.Breaker_open));
    expired_queued = count (is (Outcome.Deadline_exceeded `Queued));
    expired_running = count (is (Outcome.Deadline_exceeded `Running));
    retries;
    horizon_s = horizon;
    goodput_qps = (if horizon > 0. then float_of_int served_ok /. horizon else 0.);
    p50_s = p50;
    p99_s = p99;
    p999_s = p999;
    max_queue_len = stats.Server.max_queue_len;
    max_mem_used = stats.Server.max_mem_used;
    breaker_trips =
      List.fold_left (fun a (_, n) -> a + n) 0 stats.Server.breaker_trips;
  }
    : summary)

let pp_summary ppf (s : summary) =
  Format.fprintf ppf
    "@[<v>scenario %s (%s): offered %d (attempts %d, retries %d)@,\
     served ok %d, failed %d | shed queue %d mem %d breaker %d | expired \
     queued %d running %d@,\
     goodput %.3f q/s, latency p50 %.3fs p99 %.3fs p999 %.3fs@,\
     max queue %d, max mem %d B, breaker trips %d@]"
    s.scenario s.size s.offered s.attempts s.retries s.served_ok
    s.served_failed s.shed_queue s.shed_mem s.shed_breaker s.expired_queued
    s.expired_running s.goodput_qps s.p50_s s.p99_s s.p999_s s.max_queue_len
    s.max_mem_used s.breaker_trips

let run_with ?(observe = fun (_ : Outcome.response) -> ()) cfg =
  let jobs = jobs_of cfg in
  let mean = mean_service jobs in
  let sconfig = server_config cfg jobs in
  let capacity_qps = float_of_int cfg.lanes /. mean in
  let duration_s = cfg.duration *. mean in
  let deadline_s = cfg.deadline_factor *. mean in
  let retry_budget_s = cfg.retry_budget_factor *. deadline_s in
  let arr_prng = Prng.create cfg.seed in
  let mix_prng = Prng.split arr_prng in
  let job_table = Array.of_list jobs in
  (* Fault composition: executions fail according to a PR-1 fault plan
     scattered over one job slot per request id. *)
  let plan =
    if cfg.scenario.fail_p <= 0. then Gb_fault.Fault.empty
    else
      Gb_fault.Fault.scatter ~seed:cfg.seed ~nodes:1 ~supersteps:1
        ~jobs:
          (max 64
             (int_of_float (duration_s *. capacity_qps *. 8.)))
        ~task_fail_p:cfg.scenario.fail_p ()
  in
  let next_id = ref 0 in
  let fresh_id () = incr next_id; !next_id in
  let make ~key ~attempt ~arrival =
    let id = fresh_id () in
    let j = job_table.(Prng.int mix_prng (Array.length job_table)) in
    {
      Server.id;
      key;
      (* A first attempt opens its own trace; retries (remake) carry the
         original trace forward, which is what links every span of one
         logical request in the Chrome export. *)
      trace = id;
      attempt;
      engine = j.j_engine;
      query = j.j_query;
      arrival_s = arrival;
      deadline_s;
      service_s = j.j_service;
      bytes = j.j_bytes;
      fail = Gb_fault.Fault.task_failures plan ~job:id > 0;
    }
  in
  (* Retries resubmit the same logical job, so they reuse the original
     request's cost rather than re-rolling the mix. *)
  let remake (r : Outcome.response) ~arrival =
    let id = fresh_id () in
    {
      Server.id;
      key = r.Outcome.key;
      trace = r.Outcome.trace;
      attempt = r.Outcome.attempt + 1;
      engine = r.Outcome.engine;
      query = r.Outcome.query;
      arrival_s = arrival;
      deadline_s;
      service_s =
        (let genes, patients = Spec.paper_dims cfg.size in
         Estimate.service_s ~engine:r.Outcome.engine ~genes ~patients
           r.Outcome.query);
      bytes =
        (let genes, patients = Spec.paper_dims cfg.size in
         Estimate.bytes ~genes ~patients r.Outcome.query);
      fail = Gb_fault.Fault.task_failures plan ~job:id > 0;
    }
  in
  (* Open-loop arrivals: inhomogeneous Poisson via per-interval rates. *)
  let rate_at t =
    let load =
      match cfg.scenario.shape with
      | Steady l -> l
      | Bursty { on_load; off_load; period; duty } ->
        let period_s = period *. mean in
        let phase = Float.rem t period_s /. period_s in
        if phase < duty then on_load else off_load
    in
    load *. capacity_qps
  in
  let open_arrivals =
    let rec go t acc =
      let rate = rate_at t in
      if rate <= 0. then acc
      else
        let u = Prng.uniform arr_prng in
        let t = t +. (-.log (1. -. u) /. rate) in
        if t >= duration_s then acc
        else go t (make ~key:(1000 + List.length acc) ~attempt:1 ~arrival:t :: acc)
    in
    (match cfg.scenario.shape with
    | Steady l when l <= 0. -> []
    | _ -> List.rev (go 0. []))
  in
  (* Closed-loop clients: staggered first submissions; follow-ups are
     generated from the response feedback channel below. *)
  let client_prngs = Hashtbl.create 16 in
  let client_prng key =
    match Hashtbl.find_opt client_prngs key with
    | Some g -> g
    | None ->
      let g =
        Prng.create (Int64.add cfg.seed (Int64.of_int ((key * 2) + 1)))
      in
      Hashtbl.add client_prngs key g;
      g
  in
  let closed_arrivals =
    List.init cfg.scenario.closed_loop (fun key ->
        make ~key ~attempt:1
          ~arrival:(Prng.float (client_prng key) (0.5 *. mean)))
  in
  let first_submit : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let retries = ref 0 in
  let think_next (r : Outcome.response) =
    if r.Outcome.key < cfg.scenario.closed_loop then begin
      let g = client_prng r.Outcome.key in
      let think = -.log (1. -. Prng.uniform g) *. (2. *. mean) in
      let arrival = r.Outcome.finished_s +. think in
      if arrival < duration_s then
        [ make ~key:r.Outcome.key ~attempt:1 ~arrival ]
      else []
    end
    else []
  in
  let on_response (r : Outcome.response) =
    (* Responses arrive here in deterministic event order — the hook
       point where instrumented runs feed sliding windows and the SLO
       monitor without touching the server or the PRNG draws. *)
    observe r;
    let first =
      Option.value
        (Hashtbl.find_opt first_submit r.Outcome.id)
        ~default:r.Outcome.submitted_s
    in
    Hashtbl.remove first_submit r.Outcome.id;
    if Client.retryable r then
      match
        Client.next_delay cfg.client ~key:r.Outcome.key
          ~attempt:r.Outcome.attempt ~retry_after:r.Outcome.retry_after_s
          ~remaining_s:(retry_budget_s -. (r.Outcome.finished_s -. first))
      with
      | Some d ->
        incr retries;
        if Gb_obs.Obs.active () then
          Gb_obs.Obs.Span.instant ~track:Gb_obs.Obs.Sim
            ~ts:r.Outcome.finished_s
            ~attrs:
              [
                ("trace", Gb_obs.Obs.Int r.Outcome.trace);
                ("attempt", Gb_obs.Obs.Int r.Outcome.attempt);
                ("delay_s", Gb_obs.Obs.Float d);
                ("reason", Gb_obs.Obs.Str (Outcome.label r));
              ]
            ~name:"client.retry" ();
        let req = remake r ~arrival:(r.Outcome.finished_s +. d) in
        Hashtbl.replace first_submit req.Server.id first;
        [ req ]
      | None -> think_next r
    else think_next r
  in
  let responses, stats =
    Server.run ~config:sconfig ~on_response (open_arrivals @ closed_arrivals)
  in
  (responses, stats, summarize cfg ~retries:!retries responses stats)

let run cfg = run_with cfg

(* --- instrumented runs: live windows + SLO monitor --- *)

type instrumented = {
  i_responses : Outcome.response list;
  i_stats : Server.stats;
  i_summary : summary;
  i_window : Gb_obs.Telemetry.Window.t;  (** served latencies *)
  i_monitor : Gb_obs.Slo.t;
  i_mean_service_s : float;
  i_objectives : Gb_obs.Slo.objective list;
}

let run_instrumented ?objectives cfg =
  let mean = mean_service (jobs_of cfg) in
  let objectives =
    match objectives with
    | Some o -> o
    | None -> Gb_obs.Slo.defaults ~scale_s:mean
  in
  let window =
    Gb_obs.Telemetry.Window.create ~width_s:mean ~windows:64 ()
  in
  (* A firing burn-rate alert is the flight recorder's highest-signal
     trigger: dump while the ring still holds the offending window. *)
  let on_alert (a : Gb_obs.Slo.alert) =
    if a.Gb_obs.Slo.a_firing then
      Gb_obs.Recorder.trigger ~reason:Gb_obs.Recorder.Slo_fire
        ~now:a.Gb_obs.Slo.a_at ()
  in
  let monitor = Gb_obs.Slo.create ~on_alert ~objectives () in
  let observe (r : Outcome.response) =
    let now = r.Outcome.finished_s in
    (match r.Outcome.disposition with
    | Outcome.Served _ ->
      Gb_obs.Telemetry.Window.observe window ~now (Outcome.latency_s r)
    | Outcome.Shed _ | Outcome.Deadline_exceeded _ -> ());
    Gb_obs.Slo.observe monitor ~now ~ok:(Outcome.goodput r)
      ~latency_s:(Outcome.latency_s r)
  in
  let responses, stats, summary = run_with ~observe cfg in
  {
    i_responses = responses;
    i_stats = stats;
    i_summary = summary;
    i_window = window;
    i_monitor = monitor;
    i_mean_service_s = mean;
    i_objectives = objectives;
  }

(* Interpolated-vs-exact p99 agreement over the aggregated labeled
   latency family. The telemetry histogram covers exactly the responses
   the summary's exact quantiles cover (every [Served _]), so the two
   must agree within the resolution of the buckets involved. *)
let p99_agreement (s : summary) =
  match Gb_obs.Telemetry.quantile_agg Admission.latency_family 0.99 with
  | None -> None
  | Some interp ->
    let width v = Gb_obs.Telemetry.bucket_width Admission.latency_family v in
    let tolerance = Float.max (width interp) (width s.p99_s) in
    Some (interp, s.p99_s, tolerance)

(* Mid-run tail latency from the sliding window — what a dashboard would
   show at instant [now], as opposed to the summary's post-hoc exact
   quantiles. *)
let live_quantiles (i : instrumented) ~now ~horizon_s =
  let q p =
    Gb_obs.Telemetry.Window.quantile i.i_window ~now ~horizon_s p
  in
  (q 0.5, q 0.99, q 0.999)

(* Schema-v1 records for the BENCH_slo section: alert counts and
   instants are pure functions of (scenario, seed), so the committed
   baseline diffs exactly. *)
let slo_records (i : instrumented) =
  let open Gb_obs.Bench_json in
  let s = i.i_summary in
  let all = Gb_obs.Slo.alerts i.i_monitor in
  List.filter_map
    (fun (o : Gb_obs.Slo.objective) ->
      let mine =
        List.filter (fun (a : Gb_obs.Slo.alert) -> a.a_slo = o.o_name) all
      in
      let fires = List.filter (fun (a : Gb_obs.Slo.alert) -> a.a_firing) mine in
      let first_fire =
        match fires with [] -> 0. | a :: _ -> a.Gb_obs.Slo.a_at
      in
      make
        ~name:("slo_" ^ o.o_name ^ "_fires")
        ~engine:"" ~query:""
        ~size:(s.scenario ^ "/" ^ s.size)
        ~unit_:"count" ~better:Lower
        ~counters:
          [
            ("first_fire_s", first_fire);
            ("resolves",
             float_of_int (List.length mine - List.length fires));
          ]
        [ float_of_int (List.length fires) ])
    i.i_objectives

(* --- artifacts --- *)

let csv_header =
  "id,key,attempt,engine,query,disposition,submitted_s,finished_s,queue_wait_s,exec_s,latency_s,retry_after_s"

let csv_of_responses (responses : Outcome.response list) =
  let b = Buffer.create 4096 in
  Buffer.add_string b csv_header;
  Buffer.add_char b '\n';
  List.iter
    (fun (r : Outcome.response) ->
      Printf.bprintf b "%d,%d,%d,%s,%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%s\n" r.Outcome.id
        r.Outcome.key r.Outcome.attempt
        (String.map (fun c -> if c = ',' then ';' else c) r.Outcome.engine)
        (Query.name r.Outcome.query)
        (Outcome.label r)
        r.Outcome.submitted_s r.Outcome.finished_s r.Outcome.queue_wait_s
        r.Outcome.exec_s (Outcome.latency_s r)
        (match r.Outcome.retry_after_s with
        | None -> ""
        | Some ra -> Printf.sprintf "%.6f" ra))
    responses;
  Buffer.contents b

(* Schema-v1 bench records. The simulation is deterministic, so the
   medians are exact and the bench-diff gate can be strict. *)
let bench_records (s : summary) =
  let open Gb_obs.Bench_json in
  let mk ?(better = Lower) ?counters ~unit_ name v =
    make ~name ~engine:"" ~query:"" ~size:(s.scenario ^ "/" ^ s.size) ~unit_
      ~better ?counters [ v ]
  in
  List.filter_map Fun.id
    [
      mk ~unit_:"s" "latency_p50" s.p50_s;
      mk ~unit_:"s" "latency_p99" s.p99_s;
      mk ~unit_:"s" "latency_p999" s.p999_s;
      mk ~unit_:"qps" ~better:Higher "goodput"
        ~counters:
          [
            ("offered", float_of_int s.offered);
            ("attempts", float_of_int s.attempts);
            ("served_ok", float_of_int s.served_ok);
            ("served_failed", float_of_int s.served_failed);
            ("shed_queue", float_of_int s.shed_queue);
            ("shed_mem", float_of_int s.shed_mem);
            ("shed_breaker", float_of_int s.shed_breaker);
            ("expired_queued", float_of_int s.expired_queued);
            ("expired_running", float_of_int s.expired_running);
            ("retries", float_of_int s.retries);
            ("breaker_trips", float_of_int s.breaker_trips);
            ("max_queue_len", float_of_int s.max_queue_len);
          ]
        s.goodput_qps;
      mk ~unit_:"count" "shed_total"
        (float_of_int (s.shed_queue + s.shed_mem + s.shed_breaker));
      mk ~unit_:"count" "deadline_exceeded"
        (float_of_int (s.expired_queued + s.expired_running));
    ]
