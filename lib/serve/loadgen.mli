(** Deterministic load generator over the simulated server.

    Named scenarios drive open-loop (Poisson, optionally bursty) and
    closed-loop (think-time) client populations against {!Server.run},
    with shed responses retried through the {!Client} backoff schedule
    and optional fault-plan-injected execution failures. One seed fixes
    the entire run — arrivals, mix, faults, retries — so percentiles and
    shed counts replay exactly. *)

type shape =
  | Steady of float  (** offered load as a multiple of fleet capacity *)
  | Bursty of {
      on_load : float;
      off_load : float;
      period : float;  (** in units of the mean service time *)
      duty : float;  (** fraction of each period spent at [on_load] *)
    }

type scenario = {
  sc_name : string;
  descr : string;
  shape : shape;
  closed_loop : int;  (** closed-loop client count (keys [0..n-1]) *)
  fail_p : float;  (** per-execution injected failure probability *)
}

val scenarios : scenario list
(** Single source of truth: steady, closed, burst, overload, chaos. The
    CLI derives its usage text and validation from this list. *)

val find_scenario : string -> (scenario, string) result

type config = {
  scenario : scenario;
  seed : int64;
  duration : float;  (** arrival horizon, in units of the mean service time *)
  size : Gb_datagen.Spec.size;
  engines : string list;
  lanes : int;
  queue_depth : int;
  policy : Admission.policy;
  mem_bytes : int option;  (** [None]: lanes x the largest working set *)
  deadline_factor : float;  (** per-query deadline = factor x mean service *)
  retry_budget_factor : float;  (** client retry budget = factor x deadline *)
  client : Client.policy;
  breaker : Breaker.config;
}

val default_engines : string list

val default_config : scenario -> config
(** Small paper dims, seed 42, 60 mean-service-times of arrivals, 4
    lanes, depth-16 FIFO queue. *)

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

val run : config -> Outcome.response list * Server.stats * summary
(** Generate the scenario's traffic and simulate to quiescence. With
    tracing enabled, retries additionally emit [client.retry] sim-track
    instants linked to the original request by trace id; trace ids are
    assigned per logical request (retries inherit the first attempt's),
    so every admit/queue/exec/retry span of one request shares one
    [trace] attribute. *)

(** {1 Instrumented runs} — the same simulation with a sliding latency
    window and an SLO burn-rate monitor fed from the response stream.
    The instrumentation observes responses in deterministic event order
    and consumes no PRNG draws, so summaries, sheds and percentiles are
    bit-identical to {!run}'s. *)

type instrumented = {
  i_responses : Outcome.response list;
  i_stats : Server.stats;
  i_summary : summary;
  i_window : Gb_obs.Telemetry.Window.t;
      (** served-response latencies, sub-window width = mean service *)
  i_monitor : Gb_obs.Slo.t;
  i_mean_service_s : float;
  i_objectives : Gb_obs.Slo.objective list;
}

val run_instrumented : ?objectives:Gb_obs.Slo.objective list -> config -> instrumented
(** [?objectives] defaults to {!Gb_obs.Slo.defaults} scaled by the
    workload's mean service time: availability 99% and latency-under-4x
    95%, both windows quick-scenario-sized. *)

val live_quantiles :
  instrumented ->
  now:float ->
  horizon_s:float ->
  float option * float option * float option
(** Mid-run (p50, p99, p999) over the trailing [horizon_s] seconds of
    the sliding window, interpolated — what a dashboard would show at
    [now]. *)

val p99_agreement : summary -> (float * float * float) option
(** [(interpolated, exact, tolerance)]: the aggregated
    [genbase_serve_latency_seconds] p99 versus the summary's exact
    post-hoc p99, with tolerance = the wider of the two buckets
    involved. Both cover exactly the [Served _] responses. [None] when
    telemetry was disabled (empty family). *)

val slo_records : instrumented -> Gb_obs.Bench_json.record list
(** One record per objective: fire count, first-fire instant and resolve
    count — pure functions of (scenario, seed), so the committed
    [BENCH_slo.json] baseline diffs exactly. *)

val pp_summary : Format.formatter -> summary -> unit

val csv_of_responses : Outcome.response list -> string
(** Per-response latency table (one row per attempt), CSV with header. *)

val bench_records : summary -> Gb_obs.Bench_json.record list
(** Schema-v1 records: latency p50/p99/p999, goodput (with the full
    shed/expiry breakdown as counters), shed and deadline totals. The
    simulation is deterministic, so medians are exact and the bench-diff
    gate can be strict. *)
