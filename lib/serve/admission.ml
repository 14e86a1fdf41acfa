(* The queue is a newest-first list. The backlog sum and the expiry
   order follow it, and the simulated server's bit-exact goldens depend
   on both. *)

module Tele = Gb_obs.Telemetry

type policy = Fifo | Sjf

let policies = [ ("fifo", Fifo); ("sjf", Sjf) ]

let policy_to_string = function Fifo -> "fifo" | Sjf -> "sjf"

let policy_of_string s =
  match List.assoc_opt (String.lowercase_ascii (String.trim s)) policies with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown queue policy %S (expected %s)" s
         (String.concat " or " (List.map fst policies)))

type 'a entry = {
  payload : 'a;
  engine : string;
  seq : int;
  estimate : float;
  deadline_at : float;
}

type 'a t = {
  policy : policy;
  queue_depth : int;
  lanes : int;
  mem_bytes : int;
  breaker_config : Breaker.config;
  now : unit -> float;
  breakers : (string, Breaker.t) Hashtbl.t;
  mutable queue : 'a entry list;
  mutable admitted : int;
}

let create ~policy ~queue_depth ~lanes ~mem_bytes ~breaker ~now =
  {
    policy;
    queue_depth;
    lanes;
    mem_bytes;
    breaker_config = breaker;
    now;
    breakers = Hashtbl.create 8;
    queue = [];
    admitted = 0;
  }

let breaker t engine =
  match Hashtbl.find_opt t.breakers engine with
  | Some b -> b
  | None ->
    let b = Breaker.create ~config:t.breaker_config ~now:t.now engine in
    Hashtbl.add t.breakers engine b;
    b

(* One set of families for both servers, so one exposition covers either
   path. Latency covers every [Served _] response — the set Loadgen's
   exact percentiles cover, so the two agree within one bucket width. *)
let f_requests =
  Tele.counter_family ~help:"Requests arriving at the server"
    "genbase_serve_requests_total"

let f_responses =
  Tele.counter_family ~help:"Responses by final disposition"
    "genbase_serve_responses_total"

let latency_family =
  Tele.hist_family ~help:"End-to-end latency of served requests (seconds)"
    "genbase_serve_latency_seconds"

type verdict = Admitted | Shed of Outcome.shed_reason * float option

let verdict_label = function
  | Admitted -> "admitted"
  | Shed (reason, _) -> "shed:" ^ Outcome.shed_reason_label reason

let admit t ~engine ~query ~estimate ~bytes ~deadline_at payload =
  if Tele.enabled () then
    Tele.incr f_requests
      [ ("engine", engine); ("query", Genbase.Query.name query) ];
  (* A working set over the whole budget could never run next to
     anything: a batch harness runs it alone, a server refuses it. *)
  if bytes > t.mem_bytes then Shed (Outcome.Memory, None)
  else if List.length t.queue >= t.queue_depth then
    (* Hint: roughly one drain of the backlog across the lanes. *)
    let backlog = List.fold_left (fun acc e -> acc +. e.estimate) 0. t.queue in
    Shed
      (Outcome.Queue_full, Some (Float.max 0.05 (backlog /. float_of_int t.lanes)))
  else
    match Breaker.admit (breaker t engine) with
    | `Fast_fail retry_after -> Shed (Outcome.Breaker_open, Some retry_after)
    | `Admit ->
      t.admitted <- t.admitted + 1;
      let e = { payload; engine; seq = t.admitted; estimate; deadline_at } in
      t.queue <- e :: t.queue;
      Admitted

let length t = List.length t.queue

(* SJF ties go to the oldest, so no request starves behind an equal
   peer. *)
let head t =
  let better a b =
    match t.policy with
    | Fifo -> if b.seq < a.seq then b else a
    | Sjf ->
      let c = Float.compare b.estimate a.estimate in
      if c < 0 || (c = 0 && b.seq < a.seq) then b else a
  in
  match t.queue with
  | [] -> None
  | first :: rest -> Some (List.fold_left better first rest)

let remove t e = t.queue <- List.filter (fun e' -> e'.seq <> e.seq) t.queue

(* In half-open an admission holds a probe slot; one that never runs
   must hand it back or probing wedges. *)
let abandon t ~engine = Breaker.abandon (breaker t engine)

let expire t =
  let now = t.now () in
  let expired, live = List.partition (fun e -> e.deadline_at < now) t.queue in
  t.queue <- live;
  List.iter (fun e -> abandon t ~engine:e.engine) expired;
  expired

let complete t ~engine ~ok = Breaker.record (breaker t engine) ~ok

let breaker_trips t =
  Hashtbl.fold (fun name b acc -> (name, Breaker.trips b) :: acc) t.breakers []
  |> List.sort compare

let observe_response (resp : Outcome.response) =
  let now = resp.Outcome.finished_s in
  (match resp.Outcome.disposition with
  | Outcome.Shed _ -> Gb_obs.Recorder.observe_shed ~now
  | _ -> ());
  Gb_obs.Recorder.observe_response ~trace:resp.Outcome.trace
    ~latency_s:(Outcome.latency_s resp) ~ok:(Outcome.goodput resp) ~now;
  if Tele.enabled () then begin
    let labels =
      [
        ("engine", resp.Outcome.engine);
        ("query", Genbase.Query.name resp.Outcome.query);
      ]
    in
    Tele.incr f_responses (("disposition", Outcome.label resp) :: labels);
    match resp.Outcome.disposition with
    | Outcome.Served _ ->
      Tele.observe latency_family labels (Outcome.latency_s resp)
    | Outcome.Shed _ | Outcome.Deadline_exceeded _ -> ()
  end
