(* The four workloads and the loops that run them through
   [Gb_serve.Live]. Everything a workload does is fixed here; the run's
   seed picks the datasets, the request order and the arrival times. *)

module Engine = Genbase.Engine
module Query = Genbase.Query
module Dataset = Genbase.Dataset
module Live = Gb_serve.Live
module Outcome = Gb_serve.Outcome
module Spec = Gb_datagen.Spec
module Exec = Gb_stream.Exec
module Ingest = Gb_stream.Ingest
module Oracle = Gb_conformance.Oracle

type shape =
  | Closed  (** one client; the next request goes out when the answer is back *)
  | Open of float  (** Poisson arrivals, requests per second *)
  | Stream  (** ingest batches; every [read_every]th also serves a read *)

type t = {
  name : string;
  size : Spec.size;
  engines : Engine.t list;
  shape : shape;
  pool_jobs : int;
  deadline_s : float;
}

let postgres_r = Genbase.Engine_sql.postgres_r
let colstore_udf = Genbase.Engine_sql.colstore_udf
let scidb = Genbase.Engine_scidb.engine
let vanilla_r = Genbase.Engine_r.engine

let all =
  [
    {
      name = "sql-medium";
      size = Spec.Medium;
      engines = [ postgres_r; colstore_udf ];
      shape = Closed;
      pool_jobs = 1;
      deadline_s = 60.;
    };
    {
      name = "array-medium";
      size = Spec.Medium;
      engines = [ scidb; vanilla_r ];
      shape = Closed;
      pool_jobs = 2;
      deadline_s = 60.;
    };
    {
      name = "stream-medium";
      size = Spec.Medium;
      engines = [ colstore_udf ];
      shape = Stream;
      pool_jobs = 1;
      deadline_s = 60.;
    };
    {
      name = "open-small";
      size = Spec.Small;
      engines = [ scidb; vanilla_r ];
      shape = Open 15.;
      pool_jobs = 1;
      deadline_s = 2.;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Live runs one lane behind a depth-8 FIFO queue in every workload:
   with the client blocked or asleep between requests, a 2-core host
   never has more runnable threads than cores. *)
let live_config () =
  { (Live.default_config ()) with Live.lanes = 1; queue_depth = 8 }

let setup_repeats = 5

(* Each run serves several datasets drawn from its seed, a new one per
   round: query cost depends on the data (biclustering iterations, the
   size of each selection), and one dataset per run would make that
   dependence most of the run-to-run spread. The stream workload ingests
   into the first. *)
let datasets_per_run = 3

(* The stream workload: 4 appends, 2 cell updates and 1 variant per
   batch; every 5th batch also serves one read. The Q3/Q4 fallback
   recomputes once 60 rows have gone stale (every 11th batch), often
   enough that a run holds several recomputes rather than zero or one. *)
let read_every = 5
let stream_profile = Ingest.profile ~batches:600 ~appends:4 ~updates:2 ~variants:1 ()
let stream_config =
  { Gb_stream.Maintain.default_config with Gb_stream.Maintain.staleness_limit = 60 }

let types w =
  List.concat_map (fun e -> List.map (fun q -> (e, q)) Query.all) w.engines

let type_key (e : Engine.t) q = e.Engine.name ^ "/" ^ Query.name q

(* --- the oracle gate ---

   Each served answer is classified against the Vanilla R reference on
   the same dataset (computed once per dataset and query) as soon as the
   client has it, and only the verdict is kept: holding every payload
   until the end would grow the heap with the number of requests served
   and turn peak memory into a throughput count. The time the gate takes
   is excluded from the timed interval. *)

type gate = {
  mutable refs : (Dataset.t * Query.t * Engine.outcome) list;
  mutable problems : string list;
  mutable paused_s : float;
}

let gate () = { refs = []; problems = []; paused_s = 0. }

let now = Unix.gettimeofday

let ok_class = function
  | Oracle.Match _ | Oracle.Degraded_match _ -> true
  | _ -> false

let reference g ds q =
  match List.find_opt (fun (d, q', _) -> d == ds && q' = q) g.refs with
  | Some (_, _, r) -> r
  | None ->
    let r = Engine.run Oracle.reference ds q ~timeout_s:600. () in
    g.refs <- (ds, q, r) :: g.refs;
    r

type request = {
  engine : Engine.t;
  query : Query.t;
  resp : Outcome.response;  (** with the payload dropped *)
  timing : Engine.timing option;  (** the engine's own dm / analytics clock *)
  correct : bool;  (** served, and the answer passed the oracle *)
  due_s : float;  (** offset from the start of the timed interval *)
  sent_s : float;
}

let checked g (e : Engine.t) q ds ~due_s ~sent_s (resp : Outcome.response) =
  let t0 = now () in
  let correct =
    match resp.Outcome.engine_outcome with
    | Some outcome when Outcome.goodput resp ->
      let c =
        Oracle.classify
          ~tol:(Oracle.tolerance_for ~engine:e.Engine.name q)
          ~p_threshold:Query.default_params.Query.p_threshold
          ~reference:(reference g ds q) outcome
      in
      if not (ok_class c) then
        g.problems <-
          Printf.sprintf "%s: %s" (type_key e q) (Oracle.describe c) :: g.problems;
      ok_class c
    | _ -> false
  in
  g.paused_s <- g.paused_s +. (now () -. t0);
  {
    engine = e;
    query = q;
    resp = { resp with Outcome.engine_outcome = None };
    timing = Option.bind resp.Outcome.engine_outcome Engine.timing_of;
    correct;
    due_s;
    sent_s;
  }

let latency r =
  Schedule.due_latency ~due:r.due_s ~sent:r.sent_s
    ~served_s:(Outcome.latency_s r.resp)

(* --- one run --- *)

type batch = { kind : string; batch_s : float; read : request option }

type stream_state = {
  exec : Exec.t;
  log : Ingest.log;
  mutable recomputes : int;
  mutable staleness_max : int;
}

type run = {
  workload : t;
  seed : int;
  datasets : Dataset.t list;
  setup_s : float list;
  timed_s : float;  (** wall time of the timed interval, oracle checks excluded *)
  requests : request list;  (** every Live submission, in issue order *)
  batches : batch list;  (** stream only, in order *)
  stream : stream_state option;
  peak_rss_mb : float;
  problems : string list;  (** oracle failures; empty when every answer passed *)
  live : Live.t;
      (** still running, idle: the replay then runs beside the same
          worker domain the served requests had *)
}

(* A field of /proc/self/status, e.g. "VmHWM:". *)
let proc_status key =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line ->
          let k = String.length key in
          if String.length line > k && String.sub line 0 k = key then
            Some (String.trim (String.sub line k (String.length line - k)))
          else find ()
        | exception End_of_file -> None
      in
      find ())

(* Peak resident set of this process, from the kernel's own count. *)
let peak_rss_mb () =
  match proc_status "VmHWM:" with
  | Some v -> (
    match String.split_on_char ' ' v with
    | kb :: _ -> float_of_string kb /. 1024.
    | [] -> failwith "e2e: unreadable VmHWM")
  | None -> failwith "e2e: no VmHWM in /proc/self/status"

(* --- set-up: everything before the first timed request --- *)

type prepared = {
  p_datasets : Dataset.t list;
  p_live : Live.t;
  p_stream : stream_state option;
}

let warmup_query = Query.Q6_overlap

let prepare w (s : Schedule.streams) =
  let datasets =
    List.map
      (fun seed -> Dataset.generate ~seed (Spec.of_size w.size))
      (Schedule.dataset_seeds s
         (match w.shape with Stream -> 1 | Closed | Open _ -> datasets_per_run))
  in
  let ds = List.hd datasets in
  let stream =
    match w.shape with
    | Stream ->
      let log = Ingest.generate ~profile:stream_profile ds in
      let exec = Exec.create ~config:stream_config ~queries:Query.all ds log in
      Some { exec; log; recomputes = 0; staleness_max = 0 }
    | Closed | Open _ -> None
  in
  let live = Live.create ~config:(live_config ()) () in
  List.iter
    (fun e ->
      ignore (Live.run live ~engine:e ~ds ~deadline_s:w.deadline_s warmup_query))
    w.engines;
  { p_datasets = datasets; p_live = live; p_stream = stream }

(* Set up [setup_repeats] times and keep the last: the median of the
   repeats is the reported set-up time. *)
let prepare_repeated w s =
  let rec go k acc =
    let t0 = now () in
    let p = prepare w s in
    let acc = (now () -. t0) :: acc in
    if k <= 1 then (p, List.rev acc)
    else begin
      Live.shutdown p.p_live;
      go (k - 1) acc
    end
  in
  go setup_repeats []

(* --- timed loops; each returns its requests (or batches) and the
   wall time of the interval --- *)

(* Whole rounds, as many as come closest to [seconds]: a partial round
   would tilt the mix towards whichever types it happened to hold. *)
let closed g w live datasets order ~seconds =
  let t0 = now () in
  let elapsed () = now () -. t0 -. g.paused_s in
  let rec rounds k acc =
    let e = elapsed () in
    if k > 0 && e +. (e /. float_of_int k /. 2.) >= seconds then acc
    else
      let ds = List.nth datasets (k mod List.length datasets) in
      rounds (k + 1)
        (List.fold_left
           (fun acc (e, q) ->
             let sent = elapsed () in
             let resp = Live.run live ~engine:e ~ds ~deadline_s:w.deadline_s q in
             checked g e q ds ~due_s:sent ~sent_s:sent resp :: acc)
           acc
           (Schedule.round order (types w)))
  in
  let reqs = rounds 0 [] in
  (List.rev reqs, elapsed ())

(* Arrivals go out on schedule and are awaited at the end; the answers
   are checked after the interval closes. *)
let open_loop g w live datasets (s : Schedule.streams) ~rate ~seconds =
  let due = Schedule.poisson s.arrivals ~rate ~seconds in
  let tys = types w in
  let dataset i = List.nth datasets (i / List.length tys mod List.length datasets) in
  let order =
    Array.of_list
      (Schedule.rounds s.order tys ((Array.length due / List.length tys) + 1))
  in
  let t0 = now () in
  let pending =
    Array.mapi
      (fun i d ->
        let wait = t0 +. d -. now () in
        if wait > 0. then Unix.sleepf wait;
        let e, q = order.(i) and ds = dataset i in
        let sent = now () -. t0 in
        (e, q, ds, d, sent, Live.submit live ~engine:e ~ds ~deadline_s:w.deadline_s q))
      due
  in
  let answered = Array.map (fun (e, q, ds, d, sent, h) -> (e, q, ds, d, sent, Live.await h)) pending in
  let timed_s = now () -. t0 in
  ( Array.to_list
      (Array.map
         (fun (e, q, ds, due_s, sent_s, resp) -> checked g e q ds ~due_s ~sent_s resp)
         answered),
    timed_s )

let fallback_queries = [ Query.Q3_biclustering; Query.Q4_svd ]

let refresh_all st =
  List.iter
    (fun q ->
      let before = Exec.staleness st.exec q in
      ignore (Exec.refresh st.exec q);
      let after = Exec.staleness st.exec q in
      if List.mem q fallback_queries then begin
        if after < before then st.recomputes <- st.recomputes + 1;
        st.staleness_max <- max st.staleness_max after
      end)
    Query.all

(* Whole groups of [read_every] batches, until [seconds] have passed or
   the log runs dry. *)
let stream_loop g w live st ~seconds =
  let t0 = now () in
  let elapsed () = now () -. t0 -. g.paused_s in
  let rec go i acc =
    if (i mod read_every = 0 && elapsed () >= seconds) || Exec.lag st.exec = 0
    then List.rev acc
    else begin
      let b0 = now () in
      Exec.step st.exec;
      refresh_all st;
      let read =
        if i mod read_every = read_every - 1 then begin
          let snap = Exec.snapshot st.exec in
          let q = List.nth Query.all (i / read_every mod List.length Query.all) in
          let sent = elapsed () in
          Some (q, snap, sent, Live.run live ~engine:colstore_udf ~ds:snap ~deadline_s:w.deadline_s q)
        end
        else None
      in
      let batch_s = now () -. b0 in
      let read =
        Option.map
          (fun (q, snap, sent, resp) ->
            checked g colstore_udf q snap ~due_s:sent ~sent_s:sent resp)
          read
      in
      let kind =
        match read with
        | Some r -> "read:" ^ Query.name r.query
        | None -> "plain"
      in
      go (i + 1) ({ kind; batch_s; read } :: acc)
    end
  in
  let batches = go 0 [] in
  (batches, elapsed ())

let run w ~seed ~seconds =
  Gb_par.Pool.set_jobs w.pool_jobs;
  let s = Schedule.streams seed in
  let p, setup_s = prepare_repeated w s in
  let g = gate () in
  let requests, batches, timed_s =
    match (w.shape, p.p_stream) with
    | Closed, _ ->
      let reqs, t = closed g w p.p_live p.p_datasets s.order ~seconds in
      (reqs, [], t)
    | Open rate, _ ->
      let reqs, t = open_loop g w p.p_live p.p_datasets s ~rate ~seconds in
      (reqs, [], t)
    | Stream, Some st ->
      let bs, t = stream_loop g w p.p_live st ~seconds in
      (List.filter_map (fun b -> b.read) bs, bs, t)
    | Stream, None -> assert false
  in
  let peak_rss_mb = peak_rss_mb () in
  (* the maintained answers, checked once against recompute at the end *)
  (match p.p_stream with
  | Some st ->
    List.iter
      (fun (q, c) ->
        if not (ok_class c) then
          g.problems <-
            Printf.sprintf "refresh %s: %s" (Query.name q) (Oracle.describe c)
            :: g.problems)
      (Gb_stream.Check.check_all st.exec Query.all)
  | None -> ());
  {
    workload = w;
    seed;
    datasets = p.p_datasets;
    setup_s;
    timed_s;
    requests;
    batches;
    stream = p.p_stream;
    peak_rss_mb;
    problems = List.rev g.problems;
    live = p.p_live;
  }
