module Sim = Gb_util.Clock.Sim
module Deadline = Gb_util.Deadline
module Stopwatch = Gb_util.Clock.Stopwatch
module Fault = Gb_fault.Fault
module Obs = Gb_obs.Obs
module Telemetry = Gb_obs.Telemetry

let c_jobs = Telemetry.counter ~help:"job" "mr_jobs"
let c_shuffle_bytes = Telemetry.counter ~help:"byte" "mr_shuffle_bytes"
let c_retries = Telemetry.counter ~help:"retry" "fault_retries"
let c_wasted_s = Telemetry.counter ~help:"s" "fault_wasted_s"

(* Hadoop never scales linearly: measured compute on [n] nodes is
   divided by [n * parallel_efficiency]. The cross-node share of a
   shuffle moves at [shuffle_bps] per node, and a task is tried at most
   [max_task_attempts] times (Hadoop's [mapreduce.map.maxattempts]). *)
let parallel_efficiency = 0.75
let shuffle_bps = 1e9
let max_task_attempts = 4

type t = {
  clock : Sim.t;
  job_overhead_s : float;
  nodes : int;
  mutable jobs : int;
  mutable deadline : Deadline.Sim.t;
  mutable plan : Fault.plan;
  mutable task_retries : int;
  mutable wasted_seconds : float;
}

exception Job_failed of string

let create ?(job_overhead_s = 0.15) ?(nodes = 1) () =
  let clock = Sim.create () in
  {
    clock;
    job_overhead_s;
    nodes;
    jobs = 0;
    deadline = Deadline.Sim.unlimited ~clock;
    plan = Fault.empty;
    task_retries = 0;
    wasted_seconds = 0.;
  }

let compute_speedup t =
  if t.nodes <= 1 then 1. else float_of_int t.nodes *. parallel_efficiency

let check_deadline t = Deadline.Sim.check t.deadline

let elapsed t = Sim.now t.clock
let jobs_run t = t.jobs
let set_fault_plan t plan = t.plan <- plan
let task_retries t = t.task_retries
let wasted_seconds t = t.wasted_seconds

(* Hadoop-style task retry: a failed attempt throws its work away and is
   rescheduled (paying the launch overhead again); past
   [max_task_attempts] failures the whole job aborts, as the JobTracker
   would. [dt] is the job's simulated compute time for one attempt. *)
let charge_task_faults t ~job ~name ~dt =
  let failures = Fault.task_failures t.plan ~job in
  if failures > 0 then begin
    if failures >= max_task_attempts then
      raise
        (Job_failed
           (Printf.sprintf "%s: task failed %d times (max attempts %d)" name
              failures max_task_attempts));
    let redone = float_of_int failures *. (dt +. t.job_overhead_s) in
    t.task_retries <- t.task_retries + failures;
    t.wasted_seconds <- t.wasted_seconds +. redone;
    Telemetry.add c_retries failures;
    Telemetry.addf c_wasted_s redone;
    let t0 = Sim.now t.clock in
    Sim.advance t.clock redone;
    Obs.Span.emit ~cat:"recovery" ~name:("retry:" ^ name)
      ~attrs:[ ("job", Obs.Int job); ("failures", Obs.Int failures) ]
      ~t0 ~t1:(Sim.now t.clock) ()
  end

(* The shuffle writes the intermediate key/value stream out as tab-
   separated text and reads it back, exactly as data hits HDFS between the
   map and reduce phases. *)
let shuffle pairs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf k;
      Buffer.add_char buf '\t';
      Buffer.add_string buf v;
      Buffer.add_char buf '\n')
    pairs;
  let text = Buffer.contents buf in
  let shuffled_bytes = String.length text in
  let groups = Hashtbl.create 1024 in
  let order = ref [] in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line <> "" then begin
           match String.index_opt line '\t' with
           | None -> failwith "Mr.shuffle: malformed record"
           | Some i ->
             let k = String.sub line 0 i in
             let v = String.sub line (i + 1) (String.length line - i - 1) in
             (match Hashtbl.find_opt groups k with
             | Some vs -> Hashtbl.replace groups k (v :: vs)
             | None ->
               order := k :: !order;
               Hashtbl.add groups k [ v ])
         end);
  let keys = List.rev !order in
  let keys = List.sort String.compare keys in
  (List.map (fun k -> (k, List.rev (Hashtbl.find groups k))) keys, shuffled_bytes)

let run_job t ~name ?combiner ~mapper ~reducer inputs =
  check_deadline t;
  let job = t.jobs in
  t.jobs <- job + 1;
  Telemetry.add c_jobs 1;
  let job_t0 = Sim.now t.clock in
  Sim.advance t.clock t.job_overhead_s;
  let (out, shuffled_bytes), dt =
    Stopwatch.time (fun () ->
        let pairs = List.concat_map mapper inputs in
        (* Map-side combine: pre-group in memory and collapse each key's
           values before anything is materialized for the shuffle. *)
        let pairs =
          match combiner with
          | None -> pairs
          | Some combine ->
            let groups = Hashtbl.create 256 in
            let order = ref [] in
            List.iter
              (fun (k, v) ->
                match Hashtbl.find_opt groups k with
                | Some vs -> Hashtbl.replace groups k (v :: vs)
                | None ->
                  order := k :: !order;
                  Hashtbl.add groups k [ v ])
              pairs;
            List.concat_map
              (fun k ->
                List.map
                  (fun v -> (k, v))
                  (combine k (List.rev (Hashtbl.find groups k))))
              (List.rev !order)
        in
        let grouped, bytes = shuffle pairs in
        (List.concat_map (fun (k, vs) -> reducer k vs) grouped, bytes))
  in
  let dt = dt /. compute_speedup t in
  Sim.advance t.clock dt;
  charge_task_faults t ~job ~name ~dt;
  if t.nodes > 1 then begin
    (* Cross-node fraction of the shuffle goes over the wire. *)
    let n = float_of_int t.nodes in
    let wire = float_of_int shuffled_bytes *. ((n -. 1.) /. n) in
    Sim.advance t.clock (wire /. (shuffle_bps *. n))
  end;
  Telemetry.add c_shuffle_bytes shuffled_bytes;
  Obs.Span.emit ~cat:"mr" ~name:("mr:" ^ name)
    ~attrs:
      [ ("job", Obs.Int job); ("shuffle_bytes", Obs.Int shuffled_bytes) ]
    ~t0:job_t0 ~t1:(Sim.now t.clock) ();
  out

let text_job t ~name f inputs =
  check_deadline t;
  let job = t.jobs in
  t.jobs <- job + 1;
  Telemetry.add c_jobs 1;
  let job_t0 = Sim.now t.clock in
  Sim.advance t.clock t.job_overhead_s;
  let out, dt =
    Stopwatch.time (fun () ->
        let out = f inputs in
        (* Materialize as text, as the job's output would be written. *)
        let buf = Buffer.create 4096 in
        List.iter
          (fun line ->
            Buffer.add_string buf line;
            Buffer.add_char buf '\n')
          out;
        String.split_on_char '\n' (Buffer.contents buf)
        |> List.filter (fun l -> l <> ""))
  in
  let dt = dt /. compute_speedup t in
  Sim.advance t.clock dt;
  charge_task_faults t ~job ~name ~dt;
  Obs.Span.emit ~cat:"mr" ~name:("mr:" ^ name)
    ~attrs:[ ("job", Obs.Int job) ]
    ~t0:job_t0 ~t1:(Sim.now t.clock) ();
  out

let map_only t ~name ~mapper inputs =
  text_job t ~name (fun inputs -> List.concat_map mapper inputs) inputs

let set_deadline t d =
  t.deadline <- Deadline.Sim.at ~clock:t.clock ~time:d

let run_combine t ~name ~init ~fold ~emit inputs =
  text_job t ~name
    (fun inputs -> emit (List.fold_left fold init inputs))
    inputs
