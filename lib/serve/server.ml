(* The overload-safe query server, as a deterministic discrete-event
   simulation on the sim clock.

   Pipeline for every request: arrival-time admission (working-set cap,
   bounded queue, per-engine circuit breaker) -> queue (FIFO or
   shortest-job-first on the Estimate cost model) -> memory reservation
   against a Par.Budget -> execution on one of [lanes] lanes, truncated
   at the request's deadline (the sim analogue of the kernels'
   cooperative checkpoints). Every path ends in exactly one
   Outcome.response, so offered load can exceed capacity by any factor
   while queue depth and reserved memory stay bounded.

   Determinism: events are ordered by (time, insertion seq); service
   times, breaker transitions and retry-driven re-arrivals are all pure
   functions of the inputs, so a run replays bit-for-bit. *)

module Sim = Gb_util.Clock.Sim

type config = {
  lanes : int;
  queue_depth : int;
  policy : Admission.policy;
  mem_bytes : int;
  breaker : Breaker.config;
}

let default_config =
  {
    lanes = 4;
    queue_depth = 16;
    policy = Admission.Fifo;
    mem_bytes = 4096 * 1024 * 1024;
    breaker = Breaker.default_config;
  }

type request = {
  id : int;
  key : int;
  trace : int;
  attempt : int;
  engine : string;
  query : Genbase.Query.t;
  arrival_s : float;
  deadline_s : float;
  service_s : float;
  bytes : int;
  fail : bool;
}

type stats = {
  max_queue_len : int;
  max_mem_used : int;
  breaker_trips : (string * int) list;
}

(* --- internal state --- *)

type queued = {
  req : request;
  mutable mem_blocked_at : float option;
      (** first dispatch attempt that failed memory reservation — the
          start of the queue wait's memory-budget tail *)
}

type running = {
  r_req : request;
  started_s : float;
  reserved : int;
  cancelled : bool;  (** finish event is the deadline, not completion *)
}

type ev = Arrive of request | Finish of int  (** lane *)

type event = { at : float; eseq : int; ev : ev }

(* Labeled live families beyond the ones {!Admission} feeds for both
   servers (telemetry flag, independent of the span flag). *)
module Tele = Gb_obs.Telemetry

let f_queue_wait =
  Tele.hist_family ~help:"Queue wait before execution (seconds)"
    "genbase_serve_queue_wait_seconds"

let g_queue_depth =
  Tele.gauge_family ~help:"Admission-queue depth" "genbase_serve_queue_depth"

let g_mem =
  Tele.gauge_family ~help:"Reserved working-set bytes"
    "genbase_serve_mem_reserved_bytes"

let run ?(config = default_config) ?(on_response = fun _ -> []) requests =
  if config.lanes < 1 then invalid_arg "Server.run: lanes";
  if config.queue_depth < 0 then invalid_arg "Server.run: queue_depth";
  let clock = Sim.create () in
  let now () = Sim.now clock in
  let budget = Gb_par.Budget.create ~bytes:(max 1 config.mem_bytes) in
  let adm =
    Admission.create ~policy:config.policy ~queue_depth:config.queue_depth
      ~lanes:config.lanes ~mem_bytes:config.mem_bytes ~breaker:config.breaker
      ~now
  in
  let events = Gb_util.Heap.create ~cmp:(fun a b ->
      match Float.compare a.at b.at with 0 -> compare a.eseq b.eseq | c -> c)
  in
  let eseq = ref 0 in
  let push_event at ev =
    incr eseq;
    Gb_util.Heap.push events { at; eseq = !eseq; ev }
  in
  let lanes : running option array = Array.make config.lanes None in
  let responses = ref [] in
  let max_queue_len = ref 0 and max_mem_used = ref 0 in
  let respond (resp : Outcome.response) =
    responses := resp :: !responses;
    Admission.observe_response resp;
    List.iter
      (fun (r : request) ->
        push_event (Float.max r.arrival_s resp.Outcome.finished_s) (Arrive r))
      (on_response resp)
  in
  let base_response ?(retry_after = None) ?(finished = now ()) ?(wait = 0.)
      ?(exec = 0.) (r : request) disposition =
    {
      Outcome.id = r.id;
      key = r.key;
      trace = r.trace;
      attempt = r.attempt;
      engine = r.engine;
      query = r.query;
      submitted_s = r.arrival_s;
      finished_s = finished;
      queue_wait_s = wait;
      exec_s = exec;
      disposition;
      retry_after_s = retry_after;
      engine_outcome = None;
    }
  in
  let free_lane () =
    let rec go i =
      if i >= Array.length lanes then None
      else if lanes.(i) = None then Some i
      else go (i + 1)
    in
    go 0
  in
  let set_queue_depth () =
    if Tele.enabled () then
      Tele.set g_queue_depth [] (float_of_int (Admission.length adm))
  in
  (* Expire queued entries whose deadline passed before they reached a
     lane. Judged lazily at dispatch points; the response is stamped at
     the deadline instant the entry actually died. *)
  let sweep_expired () =
    List.iter
      (fun (e : queued Admission.entry) ->
        let r = e.Admission.payload.req and at = e.Admission.deadline_at in
        if Gb_obs.Obs.active () then
          Gb_obs.Obs.Span.instant ~track:Gb_obs.Obs.Sim ~ts:at
            ~attrs:
              [
                ("trace", Gb_obs.Obs.Int r.trace);
                ("id", Gb_obs.Obs.Int r.id);
                ("engine", Gb_obs.Obs.Str r.engine);
              ]
            ~name:"serve.expire" ();
        respond
          (base_response r ~finished:at ~wait:(at -. r.arrival_s)
             (Outcome.Deadline_exceeded `Queued)))
      (Admission.expire adm);
    set_queue_depth ()
  in
  let dispatch () =
    let continue_ = ref true in
    while !continue_ do
      continue_ := false;
      sweep_expired ();
      match free_lane () with
      | None -> ()
      | Some lane -> (
        match Admission.head adm with
        | None -> ()
        | Some e -> (
          let q = e.Admission.payload in
          (* Memory admission: the pipeline's Par.Budget stage. A
             reservation that does not fit right now keeps its place in
             the queue — execution, not queueing, is what the budget
             bounds — and the next Finish retries the dispatch. *)
          match Gb_par.Budget.try_reserve budget ~bytes:q.req.bytes with
          | None -> if q.mem_blocked_at = None then q.mem_blocked_at <- Some (now ())
          | Some reserved ->
            Admission.remove adm e;
            max_mem_used := max !max_mem_used (Gb_par.Budget.used budget);
            set_queue_depth ();
            if Tele.enabled () then begin
              Tele.set g_mem [] (float_of_int (Gb_par.Budget.used budget));
              Tele.observe f_queue_wait
                [
                  ("engine", q.req.engine);
                  ("query", Genbase.Query.name q.req.query);
                ]
                (now () -. q.req.arrival_s)
            end;
            let t = now () in
            let completes_at = t +. q.req.service_s in
            (* Cooperative cancellation, sim form: finishing strictly
               after the deadline means the checkpoint fires at the
               deadline instant; finishing exactly on it is a served
               query (Deadline.expired is a strict comparison). *)
            let deadline_at = e.Admission.deadline_at in
            let cancelled = completes_at > deadline_at in
            let finish_at = if cancelled then deadline_at else completes_at in
            lanes.(lane) <-
              Some { r_req = q.req; started_s = t; reserved; cancelled };
            if Gb_obs.Obs.active () then begin
              (* The tail of the wait spent blocked on the memory budget
                 rides along so the critical-path analyzer can split
                 queue wait from memory wait. *)
              let mem_attr =
                match q.mem_blocked_at with
                | Some b when t > b -> [ ("mem_wait_s", Gb_obs.Obs.Float (t -. b)) ]
                | _ -> []
              in
              Gb_obs.Obs.Span.emit ~cat:"serve" ~name:"queue"
                ~attrs:
                  ([
                     ("trace", Gb_obs.Obs.Int q.req.trace);
                     ("id", Gb_obs.Obs.Int q.req.id);
                     ("attempt", Gb_obs.Obs.Int q.req.attempt);
                     ("engine", Gb_obs.Obs.Str q.req.engine);
                   ]
                  @ mem_attr)
                ~tid:0 ~t0:q.req.arrival_s ~t1:t ()
            end;
            push_event finish_at (Finish lane);
            continue_ := true))
    done
  in
  let arrive (r : request) =
    let verdict =
      Admission.admit adm ~engine:r.engine ~query:r.query
        ~estimate:r.service_s ~bytes:r.bytes
        ~deadline_at:(now () +. r.deadline_s)
        { req = r; mem_blocked_at = None }
    in
    (* One instant per arrival carrying the admission decision, linked
       to the rest of the request's spans by the trace attribute. *)
    if Gb_obs.Obs.active () then
      Gb_obs.Obs.Span.instant ~track:Gb_obs.Obs.Sim ~ts:(now ())
        ~attrs:
          [
            ("trace", Gb_obs.Obs.Int r.trace);
            ("id", Gb_obs.Obs.Int r.id);
            ("attempt", Gb_obs.Obs.Int r.attempt);
            ("engine", Gb_obs.Obs.Str r.engine);
            ("decision", Gb_obs.Obs.Str (Admission.verdict_label verdict));
          ]
        ~name:"serve.admit" ();
    match verdict with
    | Admission.Shed (reason, retry_after) ->
      respond (base_response r ~retry_after (Outcome.Shed reason))
    | Admission.Admitted ->
      max_queue_len := max !max_queue_len (Admission.length adm);
      set_queue_depth ();
      dispatch ()
  in
  let finish lane =
    match lanes.(lane) with
    | None -> assert false
    | Some run ->
      lanes.(lane) <- None;
      Gb_par.Budget.release budget ~bytes:run.reserved;
      let t = now () in
      let r = run.r_req in
      let ok = (not run.cancelled) && not r.fail in
      Admission.complete adm ~engine:r.engine ~ok;
      if Tele.enabled () then
        Tele.set g_mem [] (float_of_int (Gb_par.Budget.used budget));
      if Gb_obs.Obs.active () then begin
        Gb_obs.Obs.Span.emit ~cat:"serve" ~name:"exec"
          ~attrs:
            [
              ("trace", Gb_obs.Obs.Int r.trace);
              ("id", Gb_obs.Obs.Int r.id);
              ("attempt", Gb_obs.Obs.Int r.attempt);
              ("engine", Gb_obs.Obs.Str r.engine);
              ("ok", Gb_obs.Obs.Bool ok);
            ]
          ~tid:(lane + 1) ~t0:run.started_s ~t1:t ();
        if run.cancelled then
          Gb_obs.Obs.Span.instant ~track:Gb_obs.Obs.Sim ~ts:t
            ~attrs:
              [
                ("trace", Gb_obs.Obs.Int r.trace);
                ("id", Gb_obs.Obs.Int r.id);
                ("engine", Gb_obs.Obs.Str r.engine);
              ]
            ~name:"serve.cancel" ()
      end;
      let disposition =
        if run.cancelled then Outcome.Deadline_exceeded `Running
        else if r.fail then Outcome.Served Outcome.Failed_
        else Outcome.Served Outcome.Ok_
      in
      respond
        (base_response r ~finished:t
           ~wait:(run.started_s -. r.arrival_s)
           ~exec:(t -. run.started_s) disposition);
      dispatch ()
  in
  List.iter (fun r -> push_event r.arrival_s (Arrive r)) requests;
  let rec loop () =
    match Gb_util.Heap.pop events with
    | None -> ()
    | Some { at; ev; _ } ->
      Sim.advance clock (Float.max 0. (at -. Sim.now clock));
      (match ev with Arrive r -> arrive r | Finish lane -> finish lane);
      loop ()
  in
  loop ();
  (* Anything still queued when the arrival stream dries up gets
     dispatched by the Finish cascade above; a non-empty queue here
     would mean a lost wakeup. *)
  assert (Admission.length adm = 0);
  let stats =
    {
      max_queue_len = !max_queue_len;
      max_mem_used = !max_mem_used;
      breaker_trips = Admission.breaker_trips adm;
    }
  in
  (List.sort (fun a b -> compare a.Outcome.id b.Outcome.id) !responses, stats)
