(* Per-engine circuit breaker: closed -> open on a high error rate over
   a sliding outcome window, open -> half-open after a cooldown,
   half-open -> closed after enough successful probes (or straight back
   to open on any probe failure). All transitions are judged against a
   caller-supplied clock so the state machine runs identically on the
   simulated and the wall clock. *)

type state = Closed | Open | Half_open

type config = {
  window : int;
  min_samples : int;
  failure_threshold : float;
  cooldown_s : float;
  half_open_probes : int;
}

let default_config =
  {
    window = 16;
    min_samples = 8;
    failure_threshold = 0.5;
    cooldown_s = 5.;
    half_open_probes = 2;
  }

type t = {
  name : string;
  config : config;
  now : unit -> float;
  on_transition : state -> state -> unit;
  m : Mutex.t;
  (* Ring buffer of the last [window] outcomes (true = failure). *)
  ring : bool array;
  mutable filled : int;
  mutable head : int;
  mutable failures : int;
  mutable state : state;
  mutable opened_at : float;
  mutable probes_in_flight : int;
  mutable probe_successes : int;
  mutable trips : int;
}

(* Labeled live gauge: 0 = closed, 1 = open, 2 = half-open per engine. *)
let g_state =
  Gb_obs.Telemetry.gauge_family
    ~help:"Circuit-breaker state (0=closed, 1=open, 2=half-open)"
    "genbase_serve_breaker_state"

let state_code = function Closed -> 0. | Open -> 1. | Half_open -> 2.
let state_label = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half_open"

let create ?(config = default_config) ?(on_transition = fun _ _ -> ()) ~now
    name =
  if config.window <= 0 then invalid_arg "Breaker.create: window";
  if config.failure_threshold <= 0. || config.failure_threshold > 1. then
    invalid_arg "Breaker.create: failure_threshold";
  {
    name;
    config;
    now;
    on_transition;
    m = Mutex.create ();
    ring = Array.make config.window false;
    filled = 0;
    head = 0;
    failures = 0;
    state = Closed;
    opened_at = neg_infinity;
    probes_in_flight = 0;
    probe_successes = 0;
    trips = 0;
  }

let name t = t.name
let config t = t.config

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Every state change funnels through here (under [t.m]): set the state,
   mirror it on the labeled gauge, drop a sim-track instant at the
   breaker's own clock so transitions interleave with server spans in
   the Chrome export, and invoke the observer callback (still holding
   the mutex — observers must not call back into the breaker). *)
let transition t next =
  let prev = t.state in
  if prev <> next then begin
    t.state <- next;
    Gb_obs.Telemetry.set g_state [ ("engine", t.name) ] (state_code next);
    Gb_obs.Obs.Span.instant ~track:Gb_obs.Obs.Sim ~ts:(t.now ())
      ~attrs:
        [
          ("engine", Gb_obs.Obs.Str t.name);
          ("from", Gb_obs.Obs.Str (state_label prev));
          ("to", Gb_obs.Obs.Str (state_label next));
        ]
      ~name:"breaker.transition" ();
    (* An opening breaker is an anomaly worth a flight-recorder dump:
       the ring still holds the requests that tripped it. *)
    if next = Open then
      Gb_obs.Recorder.trigger ~reason:Gb_obs.Recorder.Breaker_open
        ~now:(t.now ()) ();
    t.on_transition prev next
  end

let reset_window t =
  Array.fill t.ring 0 (Array.length t.ring) false;
  t.filled <- 0;
  t.head <- 0;
  t.failures <- 0

let trip t =
  transition t Open;
  t.opened_at <- t.now ();
  t.trips <- t.trips + 1;
  t.probes_in_flight <- 0;
  t.probe_successes <- 0;
  reset_window t

(* Open -> half-open is judged lazily, on the next admit/state query
   after the cooldown elapses. *)
let refresh t =
  if t.state = Open && t.now () -. t.opened_at >= t.config.cooldown_s then begin
    transition t Half_open;
    t.probes_in_flight <- 0;
    t.probe_successes <- 0
  end

let state t = locked t (fun () -> refresh t; t.state)
let trips t = locked t (fun () -> t.trips)

let retry_after t = Float.max 0. (t.opened_at +. t.config.cooldown_s -. t.now ())

let admit t =
  locked t (fun () ->
      refresh t;
      match t.state with
      | Closed -> `Admit
      | Open -> `Fast_fail (retry_after t)
      | Half_open ->
        if t.probes_in_flight < t.config.half_open_probes then begin
          t.probes_in_flight <- t.probes_in_flight + 1;
          `Admit
        end
        else
          (* Enough probes are already in flight to decide the engine's
             fate; tell the rest to come back after roughly the time a
             probe needs to finish. *)
          `Fast_fail (t.config.cooldown_s /. 4.))

(* An admitted request that never executed (e.g. its deadline expired in
   the queue) has no verdict to report, but in half-open it holds a probe
   slot that must come back or probing wedges. *)
let abandon t =
  locked t (fun () ->
      match t.state with
      | Half_open -> t.probes_in_flight <- max 0 (t.probes_in_flight - 1)
      | Closed | Open -> ())

let record t ~ok =
  locked t (fun () ->
      refresh t;
      match t.state with
      | Open ->
        (* A straggler admitted before the trip finished after it; its
           verdict no longer changes anything. *)
        ()
      | Half_open ->
        t.probes_in_flight <- max 0 (t.probes_in_flight - 1);
        if not ok then trip t
        else begin
          t.probe_successes <- t.probe_successes + 1;
          if t.probe_successes >= t.config.half_open_probes then begin
            transition t Closed;
            reset_window t
          end
        end
      | Closed ->
        let failed = not ok in
        if t.filled = Array.length t.ring then begin
          if t.ring.(t.head) then t.failures <- t.failures - 1
        end
        else t.filled <- t.filled + 1;
        t.ring.(t.head) <- failed;
        t.head <- (t.head + 1) mod Array.length t.ring;
        if failed then t.failures <- t.failures + 1;
        if
          t.filled >= t.config.min_samples
          && float_of_int t.failures /. float_of_int t.filled
             >= t.config.failure_threshold
        then trip t)
