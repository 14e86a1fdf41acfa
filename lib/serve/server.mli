(** Overload-safe query server as a deterministic discrete-event
    simulation.

    Every submitted request ends in exactly one {!Outcome.response}:
    served, shed at admission (queue full, working set too large, or
    circuit breaker open), or deadline-exceeded (in the queue or
    mid-execution). Offered load may exceed capacity by any factor;
    queue length and reserved memory stay bounded by construction.

    The simulation is pure: the same config and request list replay to
    bit-identical responses and stats. Time is the sim clock, memory is
    a {!Gb_par.Budget}, admission is the shared {!Admission} policy
    with a {!Breaker} per engine. When tracing is enabled the run emits
    [serve]-category sim-track spans (queue wait on track 0, execution
    on track [lane+1]) and [serve.admit] / [serve.expire] /
    [serve.cancel] instants carrying the request's trace id and
    admission decision. When telemetry is enabled it feeds the labeled
    [genbase_serve_*] families: request/response counters and latency
    histograms keyed by [engine]/[query] (+ [disposition]), queue-wait
    histograms, and queue-depth / reserved-memory gauges. *)

type config = {
  lanes : int;  (** concurrent executions, the sim analogue of pool jobs *)
  queue_depth : int;  (** admission queue bound; 0 sheds every arrival *)
  policy : Admission.policy;  (** SJF ranks by [service_s] *)
  mem_bytes : int;  (** working-set budget across all running queries *)
  breaker : Breaker.config;
}

val default_config : config
(** 4 lanes, depth-16 FIFO queue, 4 GiB budget, default breaker. *)

type request = {
  id : int;  (** unique; responses are returned sorted by it *)
  key : int;  (** client identity, the jitter seed for retries *)
  trace : int;
      (** trace id linking every attempt and span of one logical
          request; retries carry the first attempt's trace forward *)
  attempt : int;  (** 1-based submission attempt, echoed in the response *)
  engine : string;  (** breaker scope *)
  query : Genbase.Query.t;
  arrival_s : float;  (** submission instant on the sim clock *)
  deadline_s : float;  (** budget relative to arrival *)
  service_s : float;  (** true execution cost (e.g. {!Estimate.service_s}) *)
  bytes : int;  (** working set charged to the memory budget *)
  fail : bool;  (** injected fault: execution completes but errors *)
}

type stats = {
  max_queue_len : int;  (** never exceeds [config.queue_depth] *)
  max_mem_used : int;  (** never exceeds [config.mem_bytes] *)
  breaker_trips : (string * int) list;  (** per engine, sorted by name *)
}

val run :
  ?config:config ->
  ?on_response:(Outcome.response -> request list) ->
  request list ->
  Outcome.response list * stats
(** Simulate to quiescence. [on_response] is the feedback channel for
    closed-loop clients and retries: each returned request is scheduled
    as a fresh arrival no earlier than the response's finish instant.
    Responses come back sorted by [id].

    Deadline semantics mirror the live path's cooperative checkpoints:
    a query finishing strictly after its deadline is cancelled at the
    deadline instant ([Deadline_exceeded `Running]); one finishing
    exactly on it is served — {!Gb_util.Deadline.expired} is a strict
    comparison. Raises [Invalid_argument] on a non-positive lane count
    or negative queue depth. *)
