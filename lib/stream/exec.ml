module Query = Genbase.Query
module Engine = Genbase.Engine
module Fault = Gb_fault.Fault
module Tele = Gb_obs.Telemetry
module Stopwatch = Gb_util.Clock.Stopwatch

(* Registered once, ungated — the disabled-mode contract is Telemetry's. *)
let g_watermark =
  Tele.gauge_family
    ~help:"Offset of the last fully applied ingest batch (-1 before any)"
    "stream_watermark"

let g_lag =
  Tele.gauge_family ~help:"Ingest batches generated but not yet applied"
    "stream_ingest_lag"

let c_batches =
  Tele.counter ~help:"Batches applied, including replayed ones"
    "stream_batches_applied_total"

let c_crashes =
  Tele.counter ~help:"Injected crashes absorbed by the executor"
    "stream_crashes_total"

let c_replayed =
  Tele.counter ~help:"Batches replayed after crash recovery"
    "stream_replayed_batches_total"

type counters = {
  mutable batches_applied : int;
  mutable rows_appended : int;
  mutable cells_updated : int;
  mutable variants_appended : int;
  mutable checkpoints : int;
  mutable crashes : int;
  mutable replayed_batches : int;
  mutable wasted_s : float;
}

type t = {
  base : Genbase.Dataset.t;
  log : Ingest.log;
  queries : Query.t list;
  config : Maintain.config;
  checkpoint_every : int;
  mutable live : Live.t;
  mutable maintain : Maintain.t;
  mutable watermark : int;
  mutable ckpt : (int * Live.t * Maintain.t) option;
  counters : counters;
  crashed : (int, unit) Hashtbl.t;
  batch_cost : float array; (* wall seconds of the last application *)
}

let create ?(config = Maintain.default_config) ?(checkpoint_every = 4)
    ~queries base log =
  if checkpoint_every < 1 then invalid_arg "Exec.create: checkpoint_every";
  let live = Live.of_dataset base in
  let maintain = Maintain.create ~config ~queries live in
  {
    base;
    log;
    queries;
    config;
    checkpoint_every;
    live;
    maintain;
    watermark = -1;
    ckpt = None;
    counters =
      {
        batches_applied = 0;
        rows_appended = 0;
        cells_updated = 0;
        variants_appended = 0;
        checkpoints = 0;
        crashes = 0;
        replayed_batches = 0;
        wasted_s = 0.0;
      };
    crashed = Hashtbl.create 4;
    batch_cost = Array.make (Array.length log.Ingest.batches) 0.0;
  }

let watermark t = t.watermark
let lag t = Array.length t.log.Ingest.batches - (t.watermark + 1)
let counters t = t.counters
let live t = t.live

let publish t =
  Tele.set g_watermark [] (float_of_int t.watermark);
  Tele.set g_lag [] (float_of_int (lag t))

let checkpoint t =
  t.ckpt <- Some (t.watermark, Live.copy t.live, Maintain.copy t.maintain);
  t.counters.checkpoints <- t.counters.checkpoints + 1

(* Crash: all in-memory state is lost. Restore the last durable
   checkpoint (or rebuild from the base dataset) and account the batches
   that must be re-applied — their earlier application cost is wasted
   work. *)
let recover t =
  t.counters.crashes <- t.counters.crashes + 1;
  Tele.add c_crashes 1;
  let restored_to =
    match t.ckpt with
    | Some (at, l, m) ->
      t.live <- Live.copy l;
      t.maintain <- Maintain.copy m;
      at
    | None ->
      t.live <- Live.of_dataset t.base;
      t.maintain <-
        Maintain.create ~config:t.config ~queries:t.queries t.live;
      -1
  in
  let replayed = t.watermark - restored_to in
  t.counters.replayed_batches <- t.counters.replayed_batches + replayed;
  Tele.add c_replayed replayed;
  for off = restored_to + 1 to t.watermark do
    t.counters.wasted_s <- t.counters.wasted_s +. t.batch_cost.(off)
  done;
  t.watermark <- restored_to;
  publish t

let apply_batch t (b : Ingest.batch) =
  let variants = ref [] in
  List.iter
    (fun ev ->
      match ev with
      | Ingest.Append_patient { patient; row } ->
        Live.append_patient t.live patient row;
        Maintain.on_append t.maintain t.live patient row;
        t.counters.rows_appended <- t.counters.rows_appended + 1
      | Ingest.Update_cell { patient_id; gene_id; value } ->
        let old_row = Live.row t.live patient_id in
        ignore (Live.update_cell t.live ~patient_id ~gene_id value);
        Maintain.on_update t.maintain t.live ~patient_id ~gene_id ~old_row;
        t.counters.cells_updated <- t.counters.cells_updated + 1
      | Ingest.Append_variant v ->
        Live.append_variant t.live v;
        variants := v :: !variants;
        t.counters.variants_appended <- t.counters.variants_appended + 1)
    b.Ingest.events;
  Maintain.on_variants t.maintain t.live (List.rev !variants);
  Maintain.flush t.maintain t.live

let step ?fault t =
  let next = t.watermark + 1 in
  if next >= Array.length t.log.Ingest.batches then
    invalid_arg "Exec.step: log exhausted";
  (match fault with
  | Some plan
    when Fault.crash_at plan ~node:0 ~superstep:next
         && not (Hashtbl.mem t.crashed next) ->
    Hashtbl.add t.crashed next ();
    recover t
  | _ -> ());
  (* After recovery the next batch may be an earlier one. *)
  let next = t.watermark + 1 in
  let (), cost =
    Stopwatch.time (fun () -> apply_batch t t.log.Ingest.batches.(next))
  in
  t.batch_cost.(next) <- cost;
  t.watermark <- next;
  t.counters.batches_applied <- t.counters.batches_applied + 1;
  Tele.add c_batches 1;
  if (next + 1) mod t.checkpoint_every = 0 then checkpoint t;
  publish t

let run ?fault t =
  while lag t > 0 do
    step ?fault t
  done

let refresh ?force t q = Maintain.refresh ?force t.maintain t.live q
let staleness t q = Maintain.staleness t.maintain q
let snapshot t = Live.snapshot t.live

let recovery t =
  {
    Engine.retries = t.counters.replayed_batches;
    recovered_nodes = t.counters.crashes;
    speculative = 0;
    wasted_s = t.counters.wasted_s;
  }

let engine ?fault ?profile ?staleness_limit ?(checkpoint_every = 4) () =
  let prepare ds query ~params ~timeout_s:_ =
    let config =
      {
        Maintain.params;
        staleness_limit =
          (match staleness_limit with
          | Some l -> l
          | None -> Maintain.default_config.Maintain.staleness_limit);
      }
    in
    let log = Ingest.generate ?profile ds in
    let exec = create ~config ~checkpoint_every ~queries:[ query ] ds log in
    let (), dm = Stopwatch.time (fun () -> run ?fault exec) in
    let payload, analytics =
      Stopwatch.time (fun () -> refresh ~force:true exec query)
    in
    Engine.completed { Engine.dm; analytics } ~recovery:(recovery exec)
      payload
  in
  {
    Engine.name = "Streaming IVM";
    kind = `Single_node;
    supports = (fun _ -> true);
    prepare;
  }

(* The executor joins the chaos availability table as a single-node
   row: its fault plan crashes the ingest loop mid-stream, so the cells
   exercise checkpoint restore + batch replay rather than BSP recovery.
   64 batches span the plan's full superstep range, so the configured
   crash probability actually lands mid-stream. *)
let chaos_cells chaos ds ~timeout_s =
  let fault =
    Genbase.Harness.chaos_plan chaos ~engine:"Streaming IVM" ~nodes:1
  in
  let engine = engine ~fault ~profile:(Ingest.profile ~batches:64 ()) () in
  List.map
    (fun q -> Genbase.Harness.run_cell engine ds q ~timeout_s)
    Query.all
