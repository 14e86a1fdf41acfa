(* Wall-clock serving path: the simulated server's admission policy
   ({!Admission}: bounded queue, FIFO/SJF, circuit breakers) plus the
   memory budget and deadlines, wrapped around real engine executions on
   a small pool of worker domains.

   Each lane is one domain; kernels inside an engine still use the
   shared [Gb_par.Pool] for their own data parallelism, so this trades
   kernel-level for query-level parallelism exactly like the harness's
   concurrent grid cells. Deadlines ride the ambient mechanism:
   [Engine.run] arms [Deadline.Ambient] with the remaining budget and
   the kernels' cooperative checkpoints turn an overrun into
   [Timed_out].

   Each lane keeps one slot per engine name holding [Engine.memo] of the
   last engine record seen under that name, so consecutive requests for
   the same record and data set reuse the lane's prepared session
   instead of rebuilding the engine's stores. A slot holds at most one
   session, so retained memory is bounded by lanes x engine names x one
   store set; a request naming another data set replaces it. Records are
   compared physically because two engines may share a name. *)

module Engine = Genbase.Engine
module Query = Genbase.Query

type config = {
  lanes : int;
  queue_depth : int;
  policy : Admission.policy;
  breaker : Breaker.config;
  budget : Gb_par.Budget.t;
}

let default_config () =
  {
    lanes = 2;
    queue_depth = 8;
    policy = Admission.Fifo;
    breaker = Breaker.default_config;
    budget = Genbase.Harness.memory_budget ();
  }

type ticket = {
  t_m : Mutex.t;
  t_cv : Condition.t;
  mutable t_resp : Outcome.response option;
}

type item = {
  i_id : int;
  i_trace : int;
  i_engine : Engine.t;
  i_ds : Genbase.Dataset.t;
  i_query : Query.t;
  i_params : Query.params;
  i_submitted : float;
  i_bytes : int;
  i_ticket : ticket;
}

type t = {
  cfg : config;
  epoch : float;
  m : Mutex.t;  (** guards [adm], [stopping] and [next_id] *)
  cv : Condition.t;
  adm : item Admission.t;
  mutable stopping : bool;
  mutable next_id : int;
  mutable workers : unit Domain.t list;
}

let now t = Unix.gettimeofday () -. t.epoch

let deliver (tk : ticket) (resp : Outcome.response) =
  Admission.observe_response resp;
  Mutex.lock tk.t_m;
  assert (Option.is_none tk.t_resp);
  tk.t_resp <- Some resp;
  Condition.broadcast tk.t_cv;
  Mutex.unlock tk.t_m

let response (it : item) ~finished ~wait ~exec ?(retry_after = None)
    ?(engine_outcome = None) disposition =
  {
    Outcome.id = it.i_id;
    key = it.i_id;
    trace = it.i_trace;
    attempt = 1;
    engine = it.i_engine.Engine.name;
    query = it.i_query;
    submitted_s = it.i_submitted;
    finished_s = finished;
    queue_wait_s = wait;
    exec_s = exec;
    disposition;
    retry_after_s = retry_after;
    engine_outcome;
  }

let sweep_locked t =
  let expired = Admission.expire t.adm in
  let tnow = now t in
  List.iter
    (fun (e : item Admission.entry) ->
      let it = e.Admission.payload in
      deliver it.i_ticket
        (response it ~finished:tnow ~wait:(tnow -. it.i_submitted) ~exec:0.
           (Outcome.Deadline_exceeded `Queued)))
    expired

let classify = function
  | Engine.Completed _ -> Outcome.Served Outcome.Ok_
  | Engine.Degraded _ -> Outcome.Served Outcome.Degraded_
  | Engine.Timed_out -> Outcome.Deadline_exceeded `Running
  | Engine.Out_of_memory | Engine.Errored _ | Engine.Unsupported ->
    Outcome.Served Outcome.Failed_

(* Breaker health: completions (possibly degraded) are successes;
   [Unsupported] is a static capability gap, not an engine fault, so it
   neither helps nor hurts — counting it as failure would trip breakers
   on engines that simply skip a query. *)
let breaker_ok = function
  | Engine.Completed _ | Engine.Degraded _ | Engine.Unsupported -> true
  | Engine.Timed_out | Engine.Out_of_memory | Engine.Errored _ -> false

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let slot_engine slots (e : Engine.t) =
  match Hashtbl.find_opt slots e.Engine.name with
  | Some (record, memo) when record == e -> memo
  | _ ->
    let memo = Engine.memo e in
    Hashtbl.replace slots e.Engine.name (e, memo);
    memo

let execute t slots (e : item Admission.entry) =
  let it = e.Admission.payload and engine = e.Admission.engine in
  let started = now t in
  let granted = Gb_par.Budget.reserve t.cfg.budget ~bytes:it.i_bytes in
  Fun.protect
    ~finally:(fun () -> Gb_par.Budget.release t.cfg.budget ~bytes:granted)
    (fun () ->
      let remaining = e.Admission.deadline_at -. now t in
      if remaining <= 0. then begin
        (* Expired while waiting for memory: never executed. *)
        locked t (fun () -> Admission.abandon t.adm ~engine);
        deliver it.i_ticket
          (response it ~finished:(now t)
             ~wait:(now t -. it.i_submitted)
             ~exec:0.
             (Outcome.Deadline_exceeded `Queued))
      end
      else begin
        let outcome =
          Gb_obs.Obs.Span.with_ ~cat:"serve" ~name:"serve.exec"
            ~attrs:
              [
                ("trace", Gb_obs.Obs.Int it.i_trace);
                ("id", Gb_obs.Obs.Int it.i_id);
                ("engine", Gb_obs.Obs.Str engine);
                ("query", Gb_obs.Obs.Str (Query.name it.i_query));
                ("queue_wait_s", Gb_obs.Obs.Float (started -. it.i_submitted));
              ]
            (fun () ->
              Engine.run
                (slot_engine slots it.i_engine)
                it.i_ds it.i_query ~params:it.i_params ~timeout_s:remaining ())
        in
        let finished = now t in
        locked t (fun () ->
            Admission.complete t.adm ~engine ~ok:(breaker_ok outcome));
        deliver it.i_ticket
          (response it ~finished
             ~wait:(started -. it.i_submitted)
             ~exec:(finished -. started)
             ~engine_outcome:(Some outcome) (classify outcome))
      end)

let worker t =
  Gb_obs.Obs.set_domain_tid (128 + (Domain.self () :> int));
  let slots = Hashtbl.create 8 in
  let rec loop () =
    Mutex.lock t.m;
    sweep_locked t;
    match Admission.head t.adm with
    | Some e ->
      Admission.remove t.adm e;
      Mutex.unlock t.m;
      execute t slots e;
      loop ()
    | None ->
      if t.stopping then Mutex.unlock t.m
      else begin
        Condition.wait t.cv t.m;
        Mutex.unlock t.m;
        loop ()
      end
  in
  loop ()

let create ?config () =
  let cfg = match config with Some c -> c | None -> default_config () in
  if cfg.lanes < 1 then invalid_arg "Live.create: lanes";
  if cfg.queue_depth < 0 then invalid_arg "Live.create: queue_depth";
  let epoch = Unix.gettimeofday () in
  let t =
    {
      cfg;
      epoch;
      m = Mutex.create ();
      cv = Condition.create ();
      adm =
        Admission.create ~policy:cfg.policy ~queue_depth:cfg.queue_depth
          ~lanes:cfg.lanes
          ~mem_bytes:(Gb_par.Budget.capacity cfg.budget)
          ~breaker:cfg.breaker
          ~now:(fun () -> Unix.gettimeofday () -. epoch);
      stopping = false;
      next_id = 0;
      workers = [];
    }
  in
  t.workers <- List.init cfg.lanes (fun _ -> Domain.spawn (fun () -> worker t));
  t

type handle = ticket

let await (tk : handle) =
  Mutex.lock tk.t_m;
  let rec wait () =
    match tk.t_resp with
    | Some r -> Mutex.unlock tk.t_m; r
    | None -> Condition.wait tk.t_cv tk.t_m; wait ()
  in
  wait ()

let submit t ~engine ~ds ?(params = Query.default_params) ?trace ~deadline_s
    query =
  let ticket =
    { t_m = Mutex.create (); t_cv = Condition.create (); t_resp = None }
  in
  let spec = ds.Gb_datagen.Generate.spec in
  let estimate =
    Estimate.service_s ~engine:engine.Engine.name
      ~genes:spec.Gb_datagen.Spec.genes ~patients:spec.Gb_datagen.Spec.patients
      query
  in
  Mutex.lock t.m;
  if t.stopping then begin
    Mutex.unlock t.m;
    invalid_arg "Live.submit: server is shut down"
  end;
  t.next_id <- t.next_id + 1;
  let it =
    {
      i_id = t.next_id;
      i_trace = Option.value trace ~default:t.next_id;
      i_engine = engine;
      i_ds = ds;
      i_query = query;
      i_params = params;
      i_submitted = now t;
      i_bytes = Genbase.Harness.cell_bytes ds;
      i_ticket = ticket;
    }
  in
  let verdict =
    Admission.admit t.adm ~engine:engine.Engine.name ~query ~estimate
      ~bytes:it.i_bytes
      ~deadline_at:(it.i_submitted +. deadline_s)
      it
  in
  if Gb_obs.Obs.active () then
    Gb_obs.Obs.Span.instant ~track:Gb_obs.Obs.Wall
      ~attrs:
        [
          ("trace", Gb_obs.Obs.Int it.i_trace);
          ("id", Gb_obs.Obs.Int it.i_id);
          ("engine", Gb_obs.Obs.Str engine.Engine.name);
          ("decision", Gb_obs.Obs.Str (Admission.verdict_label verdict));
        ]
      ~name:"serve.admit" ();
  (match verdict with
  | Admission.Admitted ->
    Condition.signal t.cv;
    Mutex.unlock t.m
  | Admission.Shed (reason, retry_after) ->
    Mutex.unlock t.m;
    deliver ticket
      (response it ~finished:it.i_submitted ~wait:0. ~exec:0. ~retry_after
         (Outcome.Shed reason)));
  ticket

let run t ~engine ~ds ?params ~deadline_s query =
  await (submit t ~engine ~ds ?params ~deadline_s query)

let breaker_trips t = locked t (fun () -> Admission.breaker_trips t.adm)

let shutdown t =
  Mutex.lock t.m;
  t.stopping <- true;
  Condition.broadcast t.cv;
  Mutex.unlock t.m;
  List.iter Domain.join t.workers;
  t.workers <- []
