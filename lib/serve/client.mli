(** Retry schedule for shed responses: capped exponential backoff with
    deterministic, request-keyed jitter ({!Gb_fault.Retry.delay_for_det}),
    raised to the server's retry-after hint, and cut off once the
    client's remaining budget can no longer fit the wait. *)

type policy = {
  backoff : Gb_fault.Retry.policy;
  honor_retry_after : bool;
      (** raise each backoff to the server's hint when one came back *)
}

val default_policy : policy
(** 3 attempts, 200 ms base doubling to a 4 s cap, 25% jitter,
    retry-after honored. *)

val retryable : Outcome.response -> bool
(** Only [Shed] responses are retryable: served answers are final,
    expired deadlines have no budget left, and failures already consumed
    an execution. *)

val next_delay :
  policy ->
  key:int ->
  attempt:int ->
  retry_after:float option ->
  remaining_s:float ->
  float option
(** Delay before resubmitting after the [attempt]-th try was shed, or
    [None] to give up (attempts exhausted, or the wait would not fit in
    [remaining_s]). Pure: the schedule for a given [key] replays
    identically. The simulated load generator feeds this into re-arrival
    events. *)
