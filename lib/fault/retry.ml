type policy = {
  max_attempts : int;
  base_delay_s : float;
  multiplier : float;
  max_delay_s : float;
  jitter : float;
}

let default =
  {
    max_attempts = 4;
    base_delay_s = 0.05;
    multiplier = 2.;
    max_delay_s = 2.;
    jitter = 0.25;
  }

let base_delay policy ~attempt =
  if attempt < 1 then invalid_arg "Retry.delay: attempt";
  Float.min policy.max_delay_s
    (policy.base_delay_s *. (policy.multiplier ** float_of_int (attempt - 1)))

let delay_for policy ~rng ~attempt =
  let d = base_delay policy ~attempt in
  d *. (1. +. (policy.jitter *. Gb_util.Prng.uniform rng))

(* Stateless jitter: a fresh single-shot SplitMix stream keyed on
   (key, attempt), so the schedule for a given request is a pure function
   of its key — two replicas of a client retrying the same request agree
   on every delay without sharing generator state. *)
let delay_for_det policy ~key ~attempt =
  let d = base_delay policy ~attempt in
  let g =
    Gb_util.Prng.create
      (Int64.add
         (Int64.mul (Int64.of_int key) 0x9E3779B97F4A7C15L)
         (Int64.of_int attempt))
  in
  d *. (1. +. (policy.jitter *. Gb_util.Prng.uniform g))
