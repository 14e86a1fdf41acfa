(** Per-engine circuit breaker.

    Closed: outcomes feed a sliding window; once the window holds at
    least [min_samples] outcomes and the failure rate reaches
    [failure_threshold], the breaker trips open. Open: every admission
    fast-fails with a retry-after hint until [cooldown_s] elapses.
    Half-open: up to [half_open_probes] requests are admitted as probes;
    [half_open_probes] successes close the breaker, any probe failure
    re-opens it (and restarts the cooldown).

    Time comes from a caller-supplied [now], so the same machine drives
    the simulated server (deterministic transition tests) and the live
    one. All operations are mutex-protected for the live path's
    concurrent lanes. *)

type state = Closed | Open | Half_open

type config = {
  window : int;  (** sliding-window length, in outcomes *)
  min_samples : int;  (** outcomes required before the rate can trip *)
  failure_threshold : float;  (** failure rate in (0, 1] that trips *)
  cooldown_s : float;  (** open duration before probing *)
  half_open_probes : int;  (** concurrent probes / successes to close *)
}

val default_config : config
(** 16-outcome window, 8 minimum samples, 50% threshold, 5 s cooldown,
    2 probes. *)

type t

val create :
  ?config:config ->
  ?on_transition:(state -> state -> unit) ->
  now:(unit -> float) ->
  string ->
  t
(** [create ~now engine_name]. Raises [Invalid_argument] on a
    non-positive window or an out-of-range threshold.

    [on_transition prev next] fires on every state change, under the
    breaker's mutex — observers must not call back into the breaker.
    Independent of the callback, each transition updates the
    [genbase_serve_breaker_state] labeled gauge (0 = closed, 1 = open,
    2 = half-open; telemetry flag) and emits a [breaker.transition]
    sim-track instant with [engine]/[from]/[to] attributes (tracing
    flag). *)

val name : t -> string
val config : t -> config

val state : t -> state
(** Current state; an elapsed cooldown is applied lazily, so reading the
    state can transition open -> half-open. *)

val admit : t -> [ `Admit | `Fast_fail of float ]
(** Admission decision for one request. [`Fast_fail retry_after_s] is
    the degraded fast path: the caller sheds the request with the hint
    instead of queueing it. In half-open, [`Admit] reserves one probe
    slot that the matching {!record} releases. *)

val abandon : t -> unit
(** Release an admission that will never produce an outcome (the request
    expired in the queue): returns the half-open probe slot {!admit}
    reserved without recording a verdict. No-op in other states. *)

val record : t -> ok:bool -> unit
(** Report the outcome of an admitted request. [ok = false] covers
    engine errors, memory failures and timeouts. *)

val trips : t -> int
(** Closed/half-open -> open transitions so far. *)
