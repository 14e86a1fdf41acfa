(** Wall-clock serving: the simulated server's admission policy
    ({!Admission}: bounded FIFO/SJF queue, per-engine circuit breakers)
    plus its memory budget and deadlines, around real engine executions
    on a pool of worker domains.

    Deadlines are enforced cooperatively: the remaining budget is passed
    to {!Genbase.Engine.run}, which arms {!Gb_util.Deadline.Ambient} so
    kernel checkpoints abort overrunning queries as [Timed_out] →
    [Deadline_exceeded `Running]. Memory admission shares
    {!Genbase.Harness.memory_budget} with batch grids by default.

    Each lane keeps the last prepared session per engine name
    ({!Genbase.Engine.memo} of the last engine record submitted under
    that name): a request for the same record on the physically same
    data set reuses it, anything else prepares afresh (a ["load"] span
    under [serve.exec]) and replaces it. *)

type config = {
  lanes : int;  (** worker domains executing queries *)
  queue_depth : int;
  policy : Admission.policy;
  breaker : Breaker.config;
  budget : Gb_par.Budget.t;
}

val default_config : unit -> config
(** 2 lanes, depth-8 FIFO queue, the harness memory budget. *)

type t

val create : ?config:config -> unit -> t
(** Spawns the worker domains. Raises [Invalid_argument] on a
    non-positive lane count or negative queue depth. *)

type handle
(** A pending submission; redeem with {!await} (blocking, any thread). *)

val submit :
  t ->
  engine:Genbase.Engine.t ->
  ds:Genbase.Dataset.t ->
  ?params:Genbase.Query.params ->
  ?trace:int ->
  deadline_s:float ->
  Genbase.Query.t ->
  handle
(** Admission happens synchronously: a full queue, an open breaker or an
    over-capacity working set resolve the handle immediately with the
    corresponding [Shed] (retry-after hints included); otherwise the
    query queues for a lane. Raises [Invalid_argument] after
    {!shutdown}.

    [?trace] links this submission to an existing trace (a client
    resubmitting a shed request passes the first attempt's trace id);
    defaults to a fresh id. With tracing enabled every submission emits
    a wall-track [serve.admit] instant carrying the decision, and
    executions attach the trace id to their [serve.exec] span; with
    telemetry enabled the labeled [genbase_serve_*] families are fed the
    same way as the simulated server's. *)

val await : handle -> Outcome.response
(** Block until the submission resolves. [engine_outcome] carries the
    raw engine verdict for served and timed-out executions. *)

val run :
  t ->
  engine:Genbase.Engine.t ->
  ds:Genbase.Dataset.t ->
  ?params:Genbase.Query.params ->
  deadline_s:float ->
  Genbase.Query.t ->
  Outcome.response
(** [await (submit ...)]. *)

val breaker_trips : t -> (string * int) list
(** Breaker trips per engine so far, sorted by name — the live
    counterpart of {!Server.stats}[.breaker_trips]. *)

val shutdown : t -> unit
(** Drain the queue (queued work still executes), stop accepting new
    submissions, and join the workers. *)
