(* A fixed-size Domain pool under the wall-clock engines.

   One pool per process, spawned lazily on the first parallel operation
   and reused across queries: [jobs ()] lanes, lane 0 being whichever
   domain submits work (it participates in every region) and lanes
   1..jobs-1 being dedicated worker domains parked on a condition
   variable between regions. Each lane owns a work-stealing {!Deque};
   a region pushes its chunk tasks round-robin across the deques, wakes
   the workers, and every lane then pops locally and steals when dry.

   Determinism contract:
   - [jobs () = 1] runs every operation inline on the caller over the
     whole index range — bitwise identical to the pre-pool sequential
     kernels, with no domain ever spawned.
   - For [jobs () = n], chunk boundaries are a pure function of the
     range, the grain and [n], and {!map_reduce} combines chunk results
     over a fixed binary tree on the chunk index — so a given domain
     count always produces the same floats, regardless of which lane ran
     which chunk or in what order.

   Nesting: a parallel operation issued from inside a running task (a
   kernel inside a harness cell, say) executes inline and sequentially
   on that lane — task parallelism at the outer level and data
   parallelism at the kernel level share one pool without deadlock.

   Observability: every executed task bumps the ["par_tasks"] counter
   and every cross-lane steal bumps ["par_steals"] (both gated on
   {!Gb_obs.Telemetry.enabled}, like every other counter); worker domains
   register a per-domain tid with {!Gb_obs.Obs.set_domain_tid} so wall
   spans they emit land on their own track in trace exports. *)

module Telemetry = Gb_obs.Telemetry

let tasks_c = Telemetry.counter ~help:"task" "par_tasks"
let steals_c = Telemetry.counter ~help:"steal" "par_steals"

type task = unit -> unit

type pool = {
  lanes : int;
  deques : task Deque.t array;  (** length [lanes]; index 0 = submitter *)
  m : Mutex.t;
  cv : Condition.t;
  mutable job_seq : int;  (** bumped when a region publishes tasks *)
  mutable stop : bool;
  pending : int Atomic.t;  (** tasks of the current region not yet finished *)
  error : exn option Atomic.t;  (** first task exception of the region *)
  mutable domains : unit Domain.t list;
}

(* --- sizing --- *)

let env_var = "GENBASE_DOMAINS"

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Ok n
  | Some n -> Error (Printf.sprintf "domain count must be >= 1, got %d" n)
  | None -> Error (Printf.sprintf "domain count %S is not an integer" s)

let env_warned = ref false

let jobs_from_env () =
  match Sys.getenv_opt env_var with
  | None -> 1
  | Some s -> (
    match parse_jobs s with
    | Ok n -> n
    | Error msg ->
      (* Library fallback only: the CLI validates the variable up front
         and turns this into a usage error. *)
      if not !env_warned then begin
        env_warned := true;
        Printf.eprintf "warning: ignoring %s: %s\n%!" env_var msg
      end;
      1)

let override : int option ref = ref None

let jobs () = match !override with Some n -> n | None -> jobs_from_env ()

(* --- per-domain state --- *)

(* Lane id of a pool worker domain; -1 on every other domain. *)
let lane_key = Domain.DLS.new_key (fun () -> -1)

(* True while this domain is executing inside a region (either a worker
   running a task, or the submitter helping): parallel operations seeing
   it run inline. *)
let in_region_key = Domain.DLS.new_key (fun () -> false)

(* --- the worker protocol --- *)

let run_task p t =
  let saved = Domain.DLS.get in_region_key in
  Domain.DLS.set in_region_key true;
  (try t ()
   with e ->
     (* Keep the first failure; the submitter re-raises after the join.
        The CAS only fails if another task already recorded one. *)
     ignore (Atomic.compare_and_set p.error None (Some e)));
  Domain.DLS.set in_region_key saved;
  Telemetry.add tasks_c 1;
  Atomic.decr p.pending

(* Pop locally, then sweep the other lanes for a steal. *)
let find_task p lane =
  match Deque.pop p.deques.(lane) with
  | Some t -> Some (t, false)
  | None ->
    let n = p.lanes in
    let rec sweep k =
      if k >= n - 1 then None
      else
        let v = (lane + 1 + k) mod n in
        match Deque.steal p.deques.(v) with
        | Some t -> Some (t, true)
        | None -> sweep (k + 1)
    in
    sweep 0

let rec drain p lane =
  match find_task p lane with
  | Some (t, stolen) ->
    if stolen then Telemetry.add steals_c 1;
    run_task p t;
    drain p lane
  | None -> ()

let worker p lane () =
  Domain.DLS.set lane_key lane;
  (* Wall-clock spans emitted from this domain carry its lane as tid,
     mirroring the 1-based per-node tid convention of the simulated
     engines. *)
  Gb_obs.Obs.set_domain_tid lane;
  let seen = ref 0 in
  let rec loop () =
    drain p lane;
    if Atomic.get p.pending > 0 then begin
      (* Tasks exist but are all claimed: their owners are computing.
         Spin politely — regions are short-lived. *)
      Domain.cpu_relax ();
      loop ()
    end
    else begin
      Mutex.lock p.m;
      while (not p.stop) && p.job_seq = !seen do
        Condition.wait p.cv p.m
      done;
      seen := p.job_seq;
      let stop = p.stop in
      Mutex.unlock p.m;
      if not stop then loop ()
    end
  in
  loop ()

(* --- lifecycle --- *)

let current : pool option ref = ref None

(* Serializes regions: one parallel operation in flight at a time.
   Nested operations never reach this lock (they run inline), so it
   cannot self-deadlock. *)
let region_m = Mutex.create ()

let spawn lanes =
  let p =
    {
      lanes;
      deques = Array.init lanes (fun _ -> Deque.create ());
      m = Mutex.create ();
      cv = Condition.create ();
      job_seq = 0;
      stop = false;
      pending = Atomic.make 0;
      error = Atomic.make None;
      domains = [];
    }
  in
  p.domains <- List.init (lanes - 1) (fun i -> Domain.spawn (worker p (i + 1)));
  p

let shutdown_pool p =
  Mutex.lock p.m;
  p.stop <- true;
  Condition.broadcast p.cv;
  Mutex.unlock p.m;
  List.iter Domain.join p.domains;
  p.domains <- []

let shutdown () =
  match !current with
  | None -> ()
  | Some p ->
    current := None;
    shutdown_pool p

let set_jobs n =
  if n < 1 then invalid_arg "Pool.set_jobs: domain count must be >= 1";
  override := Some n;
  match !current with
  | Some p when p.lanes <> n -> shutdown ()
  | _ -> ()

let reset_jobs () =
  override := None;
  match !current with
  | Some p when p.lanes <> jobs_from_env () -> shutdown ()
  | _ -> ()

let ensure () =
  let n = jobs () in
  match !current with
  | Some p when p.lanes = n -> p
  | Some _ ->
    shutdown ();
    let p = spawn n in
    current := Some p;
    p
  | None ->
    let p = spawn n in
    current := Some p;
    p

(* --- regions --- *)

(* Publish [tasks] round-robin across the lanes, wake the workers, help
   until every task finished, then re-raise the first task exception.
   Caller must hold [region_m] and must not already be in a region. *)
let region p tasks =
  let n = Array.length tasks in
  Atomic.set p.error None;
  Atomic.set p.pending n;
  Array.iteri (fun k t -> Deque.push p.deques.(k mod p.lanes) t) tasks;
  Mutex.lock p.m;
  p.job_seq <- p.job_seq + 1;
  Condition.broadcast p.cv;
  Mutex.unlock p.m;
  let saved = Domain.DLS.get in_region_key in
  Domain.DLS.set in_region_key true;
  let rec help () =
    drain p 0;
    if Atomic.get p.pending > 0 then begin
      Domain.cpu_relax ();
      help ()
    end
  in
  help ();
  Domain.DLS.set in_region_key saved;
  match Atomic.get p.error with Some e -> raise e | None -> ()

let in_parallel_region () = Domain.DLS.get in_region_key

(* Submit an array of thunks as one region, or run them inline when the
   pool cannot help (single lane, or already inside a region). *)
let run_tasks tasks =
  if Array.length tasks = 0 then ()
  else if jobs () = 1 || in_parallel_region () || Array.length tasks = 1 then
    Array.iter (fun t -> t ()) tasks
  else begin
    let p = ensure () in
    Mutex.lock region_m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock region_m)
      (fun () -> region p tasks)
  end

(* --- range chunking ---

   Boundaries depend only on (lo, hi, grain, lanes): an even split into
   ~4 chunks per lane, never smaller than [grain], so stealing can
   rebalance while a fixed domain count keeps a fixed decomposition. *)
let chunk_ranges ~grain ~lanes ~lo ~hi =
  let n = hi - lo in
  let target = lanes * 4 in
  let size = max (max 1 grain) ((n + target - 1) / target) in
  let nchunks = (n + size - 1) / size in
  Array.init nchunks (fun c ->
      (lo + (c * size), min hi (lo + ((c + 1) * size))))

let ranges ~grain ~lo ~hi =
  let n = hi - lo in
  if n <= 0 then []
  else begin
    let size = max 1 grain in
    let nchunks = (n + size - 1) / size in
    List.init nchunks (fun c ->
        (lo + (c * size), min hi (lo + ((c + 1) * size))))
  end

(* A region costs a wake-up, task pushes and a join: about 0.2 ms inside
   a kernel on the recording host, which a chunk of fewer multiply-adds
   than this does not repay (DESIGN.md, "Analytics kernels"). *)
let min_chunk_work = 500_000

let grain_for ~work_per_index =
  let w = max 1 work_per_index in
  max 1 ((min_chunk_work + w - 1) / w)

(* --- operations --- *)

let parallel_for ?(grain = 1) ~lo ~hi body =
  if hi - lo <= 0 then ()
  else begin
    let lanes = jobs () in
    if lanes = 1 || in_parallel_region () || hi - lo <= grain then body lo hi
    else begin
      let rs = chunk_ranges ~grain ~lanes ~lo ~hi in
      if Array.length rs <= 1 then body lo hi
      else run_tasks (Array.map (fun (a, b) () -> body a b) rs)
    end
  end

let map_reduce ?(grain = 1) ~lo ~hi ~map ~combine () =
  if hi - lo <= 0 then invalid_arg "Pool.map_reduce: empty range";
  let lanes = jobs () in
  if lanes = 1 || in_parallel_region () || hi - lo <= grain then map lo hi
  else begin
    let rs = chunk_ranges ~grain ~lanes ~lo ~hi in
    let n = Array.length rs in
    if n = 1 then map lo hi
    else begin
      let slots = Array.make n None in
      run_tasks
        (Array.mapi
           (fun i (a, b) () -> slots.(i) <- Some (map a b))
           rs);
      (* Fixed binary tree over the chunk index: the combine order for a
         given (range, grain, domain count) never varies, so floats come
         out the same on every run. *)
      let rec reduce a b =
        if b - a = 1 then Option.get slots.(a)
        else
          let mid = a + ((b - a) / 2) in
          combine (reduce a mid) (reduce mid b)
      in
      reduce 0 n
    end
  end

let par2 f g =
  if jobs () = 1 || in_parallel_region () then
    let a = f () in
    let b = g () in
    (a, b)
  else begin
    let ra = ref None and rb = ref None in
    run_tasks
      [| (fun () -> ra := Some (f ())); (fun () -> rb := Some (g ())) |];
    (Option.get !ra, Option.get !rb)
  end

let map_array f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else if jobs () = 1 || in_parallel_region () || n = 1 then Array.map f xs
  else begin
    let slots = Array.make n None in
    run_tasks (Array.mapi (fun i x () -> slots.(i) <- Some (f x)) xs);
    Array.map Option.get slots
  end

let map_list f xs = Array.to_list (map_array f (Array.of_list xs))
