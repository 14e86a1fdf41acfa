(** The admission policy both servers share: the queue of admitted
    work, the per-engine {!Breaker} table, and the rules for what is
    admitted, what runs next, what expires and what a completion
    reports. It has no clock or threads of its own: {!Server} drives it
    from its event loop on the sim clock, {!Live} from worker domains
    under its lock on the wall clock; [now] is the caller's clock.
    The caller serializes every call. *)

type policy =
  | Fifo  (** strict admission order *)
  | Sjf
      (** shortest estimate first; equal estimates keep admission order,
          so SJF never reorders identical work *)

val policies : (string * policy) list
(** Name/value pairs, the single source for CLI parsing and usage. *)

val policy_to_string : policy -> string
val policy_of_string : string -> (policy, string) result

type 'a entry = {
  payload : 'a;  (** the caller's queued item *)
  engine : string;  (** breaker scope *)
  seq : int;  (** admission order *)
  estimate : float;  (** service-time estimate: SJF rank and backlog *)
  deadline_at : float;  (** on the caller's clock *)
}

type 'a t

val create :
  policy:policy ->
  queue_depth:int ->
  lanes:int ->
  mem_bytes:int ->
  breaker:Breaker.config ->
  now:(unit -> float) ->
  'a t
(** [mem_bytes] caps a single request's working set. *)

type verdict = Admitted | Shed of Outcome.shed_reason * float option

val admit :
  'a t ->
  engine:string ->
  query:Genbase.Query.t ->
  estimate:float ->
  bytes:int ->
  deadline_at:float ->
  'a ->
  verdict
(** Count the request on [genbase_serve_requests_total], then: a working
    set over [mem_bytes] sheds [Memory]; a full queue sheds [Queue_full]
    with retry-after [max 0.05 (backlog / lanes)] over the queued
    estimates; a fast-failing breaker sheds [Breaker_open] with its own
    hint. Otherwise the payload is queued ([Shed]'s float is the
    retry-after hint). *)

val verdict_label : verdict -> string
(** ["admitted"] or the shed disposition's label, e.g. ["shed:memory"]. *)

val length : 'a t -> int

val head : 'a t -> 'a entry option
(** The entry to run next, left queued: lowest [seq] under FIFO, lowest
    estimate (ties to the lower [seq]) under SJF. *)

val remove : 'a t -> 'a entry -> unit

val expire : 'a t -> 'a entry list
(** Dequeue every entry whose deadline is strictly before [now ()] and
    {!Breaker.abandon} its admission; the caller answers each one. *)

val complete : 'a t -> engine:string -> ok:bool -> unit
(** Report an executed admission's verdict to its engine's breaker. *)

val abandon : 'a t -> engine:string -> unit
(** Release an admission that left the queue but never executed. *)

val breaker_trips : 'a t -> (string * int) list
(** Trips per engine, sorted by name. *)

val observe_response : Outcome.response -> unit
(** Taps for every final response: the flight recorder's observers and,
    with telemetry on, [genbase_serve_responses_total] and (for
    [Served]) the latency histogram. *)

val latency_family : Gb_obs.Telemetry.hist_family
(** [genbase_serve_latency_seconds], to compare its interpolated
    quantiles against exact post-hoc percentiles. *)
