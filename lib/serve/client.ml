(* Client-side retry discipline for shed responses: capped exponential
   backoff with deterministic (key-hashed) jitter, raised to the
   server's retry-after hint when one was returned, cut off by the
   request's remaining deadline budget. Pure decision logic — the
   simulated load generator turns delays into re-arrival events. *)

module Retry = Gb_fault.Retry

type policy = {
  backoff : Retry.policy;
  honor_retry_after : bool;
}

let default_policy =
  {
    backoff =
      {
        Retry.max_attempts = 3;
        base_delay_s = 0.2;
        multiplier = 2.;
        max_delay_s = 4.;
        jitter = 0.25;
      };
    honor_retry_after = true;
  }

(* Only sheds are worth resubmitting: a served answer is final, a
   deadline expiry means the client's budget is gone, and a failure
   already consumed a full execution. *)
let retryable (r : Outcome.response) =
  match r.disposition with Outcome.Shed _ -> true | _ -> false

let next_delay policy ~key ~attempt ~retry_after ~remaining_s =
  if attempt >= policy.backoff.Retry.max_attempts then None
  else
    let d = Retry.delay_for_det policy.backoff ~key ~attempt in
    let d =
      match retry_after with
      | Some ra when policy.honor_retry_after -> Float.max d ra
      | _ -> d
    in
    (* Total-deadline cutoff: when the wait alone exhausts what is left
       of the client's budget, the retry could only ever time out. *)
    if d >= remaining_s then None else Some d
