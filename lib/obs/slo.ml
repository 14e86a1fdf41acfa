(* SLO monitor: declarative availability / latency objectives evaluated
   as multi-window burn rates over sliding windows of good/bad marks.

   Burn rate is the Google SRE formulation: with a target good-fraction
   T, the error budget is (1 - T) and

     burn(window) = bad_fraction(window) / (1 - T)

   burn = 1 means the service is consuming its budget exactly at the
   rate that exhausts it by the end of the SLO period; burn = 10 means
   ten times that fast. An alert fires when burn over BOTH a long window
   and a short window (long / 12, the classic 1h/5m pairing) meets the
   factor — the long window supplies significance, the short window
   makes the alert reset quickly once the incident ends. The alert
   resolves when the short-window burn drops back below the factor.

   The monitor is driven by an explicit clock (sim or wall seconds), so
   alert instants are bit-reproducible under the deterministic server:
   the same scenario always fires the same alerts at the same times. *)

type kind = Availability | Latency_under of float

type objective = {
  o_name : string;
  o_kind : kind;
  target : float;  (* good fraction in (0,1) *)
  long_s : float;
  factor : float;
  min_events : int;
}

let objective ?(factor = 10.) ?(min_events = 20) ~name ~kind ~target ~long_s ()
    =
  if not (target > 0. && target < 1.) then
    invalid_arg "Slo.objective: target must be in (0,1)";
  if not (Float.is_finite long_s && long_s > 0.) then
    invalid_arg "Slo.objective: long_s must be positive";
  if not (factor > 0.) then invalid_arg "Slo.objective: factor must be positive";
  { o_name = name; o_kind = kind; target; long_s; factor; min_events }

let short_s o = o.long_s /. 12.

(* Defaults scaled to the workload's service-time scale: availability
   99% and latency-under-4x-mean 95%, both over a long window of
   20 x scale so a quick scenario can trip them. *)
let defaults ~scale_s =
  [
    objective ~name:"availability" ~kind:Availability ~target:0.99
      ~long_s:(20. *. scale_s) ();
    objective ~name:"latency"
      ~kind:(Latency_under (4. *. scale_s))
      ~target:0.95 ~long_s:(20. *. scale_s) ();
  ]

type alert = {
  a_slo : string;
  a_at : float;
  a_firing : bool;  (* true = fired, false = resolved *)
  a_burn_long : float;
  a_burn_short : float;
}

(* Per-objective state: one sliding window of 0/1 marks (1 = bad) at
   resolution long_s / 48, so the short window (long / 12) spans 4
   sub-windows and 49 cover the long window plus one partial sub-window.
   A window's bad fraction is the marks' mean, its event count their
   count; one bucket bound is enough to split 0 from 1. *)
type ostate = {
  obj : objective;
  marks : Telemetry.Window.t;
  mutable firing : bool;
}

type t = {
  states : ostate list;
  mutable last : float;  (* clock time of the newest observation *)
  mutable alerts_rev : alert list;
  on_alert : alert -> unit;
}

let create ?(on_alert = fun _ -> ()) ~objectives () =
  let states =
    List.map
      (fun obj ->
        {
          obj;
          marks =
            Telemetry.Window.create ~width_s:(obj.long_s /. 48.) ~windows:49
              ~buckets:[| 0.5 |] ();
          firing = false;
        })
      objectives
  in
  { states; last = 0.; alerts_rev = []; on_alert }

let burn st ~now ~horizon_s =
  match Telemetry.Window.mean st.marks ~now ~horizon_s with
  | None -> (0., 0)
  | Some bad_frac ->
    ( bad_frac /. (1. -. st.obj.target),
      Telemetry.Window.count st.marks ~now ~horizon_s )

let is_good obj ~ok ~latency_s =
  match obj.o_kind with
  | Availability -> ok
  | Latency_under bound -> ok && latency_s <= bound

let observe m ~now ~ok ~latency_s =
  m.last <- now;
  List.iter
    (fun st ->
      Telemetry.Window.observe st.marks ~now
        (if is_good st.obj ~ok ~latency_s then 0. else 1.);
      let burn_long, n_long = burn st ~now ~horizon_s:st.obj.long_s in
      let burn_short, _ = burn st ~now ~horizon_s:(short_s st.obj) in
      let should_fire =
        (not st.firing)
        && n_long >= st.obj.min_events
        && burn_long >= st.obj.factor
        && burn_short >= st.obj.factor
      in
      let should_resolve = st.firing && burn_short < st.obj.factor in
      if should_fire || should_resolve then begin
        st.firing <- should_fire;
        let a =
          {
            a_slo = st.obj.o_name;
            a_at = now;
            a_firing = should_fire;
            a_burn_long = burn_long;
            a_burn_short = burn_short;
          }
        in
        m.alerts_rev <- a :: m.alerts_rev;
        m.on_alert a;
        (* Alert instants land on the sim track at the monitor's clock,
           so they interleave with the server's spans in the Chrome
           export. Gated inside Span.instant on the Obs flag. *)
        Obs.Span.instant ~track:Obs.Sim ~ts:now
          ~attrs:
            [
              ("slo", Obs.Str st.obj.o_name);
              ("state", Obs.Str (if should_fire then "firing" else "resolved"));
              ("burn_long", Obs.Float burn_long);
              ("burn_short", Obs.Float burn_short);
            ]
          ~name:(if should_fire then "slo.fire" else "slo.resolve")
          ()
      end)
    m.states

let alerts m = List.rev m.alerts_rev

let firing m =
  List.filter_map (fun st -> if st.firing then Some st.obj.o_name else None)
    m.states

let summary m =
  List.map
    (fun st ->
      let burn_long, n = burn st ~now:m.last ~horizon_s:st.obj.long_s in
      let burn_short, _ = burn st ~now:m.last ~horizon_s:(short_s st.obj) in
      (st.obj.o_name, burn_long, burn_short, n, st.firing))
    m.states
