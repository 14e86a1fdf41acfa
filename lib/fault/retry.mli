(** Exponential backoff schedules.

    Delays are computed, not slept: [Cluster] charges its OOM backoff to
    the simulated clock, so a deadline armed on that clock fires during
    backoff, and the serving client's schedule becomes re-arrival events.
    Jitter is drawn from an explicit PRNG, or keyed statelessly, so a
    schedule replays identically from a seed. *)

type policy = {
  max_attempts : int;  (** total attempts, including the first *)
  base_delay_s : float;  (** delay before the first retry *)
  multiplier : float;  (** exponential growth per failure *)
  max_delay_s : float;  (** cap on the un-jittered delay *)
  jitter : float;  (** uniform extra delay, as a fraction of the delay *)
}

val default : policy
(** 4 attempts, 50 ms base, doubling, 2 s cap, 25% jitter. *)

val delay_for : policy -> rng:Gb_util.Prng.t -> attempt:int -> float
(** Backoff before the retry that follows the [attempt]-th failure
    (1-based): [base * multiplier^(attempt-1)], capped at [max_delay_s],
    plus jitter. The result is in
    [[d, d * (1 + jitter))] where [d] is the capped deterministic part. *)

val delay_for_det : policy -> key:int -> attempt:int -> float
(** Like {!delay_for} but with stateless jitter: a pure function of
    [(key, attempt)], no generator threading. The serving client keys
    this on the request id so a retry schedule replays identically
    whether or not other requests retried in between. Same bounds as
    {!delay_for}. *)
