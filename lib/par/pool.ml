(* A fixed-size Domain pool under the wall-clock engines.

   One pool per process, spawned lazily on the first parallel operation
   and reused across queries: [jobs ()] lanes, lane 0 being whichever
   domain submits work (it participates in every region) and lanes
   1..jobs-1 being dedicated worker domains parked on a condition
   variable between regions. A region is [n] indexed tasks behind one
   record: the submitter publishes it, wakes the workers, and every lane
   then claims the next index from the record's atomic cursor until the
   cursor passes [n].

   Determinism contract:
   - [jobs () = 1] runs every operation inline on the caller over the
     whole index range — bitwise identical to the pre-pool sequential
     kernels, with no domain ever spawned.
   - For [jobs () = n], chunk boundaries are a pure function of the
     range, the grain and [n], and every task writes outputs disjoint
     from every other task's — so a given domain count always produces
     the same floats, regardless of which lane ran which chunk or in
     what order.

   Nesting: a parallel operation issued from inside a running task (a
   kernel inside a harness cell, say) executes inline and sequentially
   on that lane — task parallelism at the outer level and data
   parallelism at the kernel level share one pool without deadlock.

   Observability: every task a region runs bumps the ["par_tasks"]
   counter (gated on {!Gb_obs.Telemetry.enabled}, like every other
   counter); worker domains register a per-domain tid with
   {!Gb_obs.Obs.set_domain_tid} so wall spans they emit land on their
   own track in trace exports. *)

module Telemetry = Gb_obs.Telemetry

let tasks_c = Telemetry.counter ~help:"task" "par_tasks"

(* One parallel operation: tasks [0, n) of [task]. *)
type region = {
  n : int;
  task : int -> unit;
  next : int Atomic.t;  (** next unclaimed task index *)
  pending : int Atomic.t;  (** tasks not yet finished *)
  error : exn option Atomic.t;  (** first task exception *)
}

type pool = {
  lanes : int;
  m : Mutex.t;
  cv : Condition.t;
  mutable job_seq : int;  (** bumped when a region is published *)
  mutable stop : bool;
  mutable region : region option;  (** the region in flight, under [m] *)
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

(* True while this domain is executing inside a region (a worker domain
   always, the submitter while it helps): parallel operations seeing it
   run inline. *)
let in_region_key = Domain.DLS.new_key (fun () -> false)

(* --- the worker protocol --- *)

(* Claim and run tasks until the cursor passes [n]. The CAS keeps the
   first failure; the submitter re-raises it after the join. *)
let rec drain r =
  let i = Atomic.fetch_and_add r.next 1 in
  if i < r.n then begin
    (try r.task i
     with e -> ignore (Atomic.compare_and_set r.error None (Some e)));
    Telemetry.add tasks_c 1;
    Atomic.decr r.pending;
    drain r
  end

let worker p lane () =
  Domain.DLS.set in_region_key true;
  (* Wall-clock spans emitted from this domain carry its lane as tid,
     mirroring the 1-based per-node tid convention of the simulated
     engines. *)
  Gb_obs.Obs.set_domain_tid lane;
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock p.m;
    while (not p.stop) && p.job_seq = !seen do
      Condition.wait p.cv p.m
    done;
    seen := p.job_seq;
    let stop = p.stop and r = p.region in
    Mutex.unlock p.m;
    if not stop then begin
      Option.iter drain r;
      loop ()
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
      m = Mutex.create ();
      cv = Condition.create ();
      job_seq = 0;
      stop = false;
      region = None;
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

(* Publish tasks [0, n) of [task], wake the workers, help until every
   task finished, unpublish (the pool keeps no closure between regions),
   then re-raise the first task exception. Caller must hold [region_m]
   and must not already be in a region. *)
let region p n task =
  let r =
    {
      n;
      task;
      next = Atomic.make 0;
      pending = Atomic.make n;
      error = Atomic.make None;
    }
  in
  Mutex.lock p.m;
  p.region <- Some r;
  p.job_seq <- p.job_seq + 1;
  Condition.broadcast p.cv;
  Mutex.unlock p.m;
  Domain.DLS.set in_region_key true;
  drain r;
  while Atomic.get r.pending > 0 do
    Domain.cpu_relax ()
  done;
  Domain.DLS.set in_region_key false;
  Mutex.lock p.m;
  p.region <- None;
  Mutex.unlock p.m;
  match Atomic.get r.error with Some e -> raise e | None -> ()

let in_parallel_region () = Domain.DLS.get in_region_key

(* Run tasks [0, n) as one region. Callers have already ruled out
   inline execution (one lane, one task, or inside a region); the pool
   is resolved under [region_m] so concurrent first submitters spawn
   it once. *)
let run n task =
  Mutex.lock region_m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock region_m)
    (fun () -> region (ensure ()) n task)

(* --- range chunking ---

   Boundaries depend only on (lo, hi, grain, lanes): an even split into
   ~4 chunks per lane, never smaller than [grain], so lanes that finish
   early claim more chunks while a fixed domain count keeps a fixed
   decomposition. *)
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

(* A region costs a wake-up, a publish and a join: about 0.2 ms inside a
   kernel on the recording host, which a chunk of fewer multiply-adds
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
      else
        run (Array.length rs) (fun c ->
            let a, b = rs.(c) in
            body a b)
    end
  end

let map_array f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else if jobs () = 1 || in_parallel_region () || n = 1 then Array.map f xs
  else begin
    let slots = Array.make n None in
    run n (fun i -> slots.(i) <- Some (f xs.(i)));
    Array.map Option.get slots
  end

let map_list f xs = Array.to_list (map_array f (Array.of_list xs))
