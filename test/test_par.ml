(* Domain pool: jobs parsing, parallel_for coverage and equivalence to
   the sequential loop, ordered maps, exception propagation (and pool
   reuse afterwards), nested regions running inline, the par_tasks
   counter, concurrent submitters, region release, and the memory-budget
   gate.

   The container running CI may have a single core; nothing here asserts
   wall-clock speedup — only correctness and determinism contracts. *)

module Pool = Gb_par.Pool
module Budget = Gb_par.Budget

let check = Alcotest.check
let checkb = Alcotest.(check bool)

(* Run [f] with the pool forced to [jobs] lanes, restoring the default
   afterwards even on exception (the pool is process-global state). *)
let with_jobs jobs f =
  Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.reset_jobs ()) f

(* --- jobs parsing --- *)

let test_parse_jobs () =
  checkb "1 ok" true (Pool.parse_jobs "1" = Ok 1);
  checkb "8 ok" true (Pool.parse_jobs "8" = Ok 8);
  checkb "0 rejected" true (Result.is_error (Pool.parse_jobs "0"));
  checkb "negative rejected" true (Result.is_error (Pool.parse_jobs "-3"));
  checkb "non-numeric rejected" true (Result.is_error (Pool.parse_jobs "abc"));
  checkb "empty rejected" true (Result.is_error (Pool.parse_jobs ""));
  checkb "set_jobs 0 raises" true
    (match Pool.set_jobs 0 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* --- parallel_for covers the range exactly once, any domain count --- *)

let test_parallel_for_coverage () =
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let n = 10_007 in
          let hits = Array.make n 0 in
          Pool.parallel_for ~grain:64 ~lo:0 ~hi:n (fun lo hi ->
              for i = lo to hi - 1 do
                hits.(i) <- hits.(i) + 1
              done);
          checkb
            (Printf.sprintf "every index once at %d domains" jobs)
            true
            (Array.for_all (fun h -> h = 1) hits);
          (* Empty and single-element ranges must not call out of range. *)
          Pool.parallel_for ~lo:5 ~hi:5 (fun _ _ -> Alcotest.fail "empty range");
          let one = ref 0 in
          Pool.parallel_for ~lo:3 ~hi:4 (fun lo hi -> one := !one + hi - lo);
          check Alcotest.int "single element" 1 !one))
    [ 1; 2; 4 ]

let test_parallel_for_matches_sequential () =
  (* Disjoint writes partitioned over output slots: identical bits to
     the plain loop at every domain count. *)
  let n = 4096 in
  let reference = Array.init n (fun i -> sin (float_of_int i) *. 1.7) in
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let out = Array.make n 0. in
          Pool.parallel_for ~grain:32 ~lo:0 ~hi:n (fun lo hi ->
              for i = lo to hi - 1 do
                out.(i) <- sin (float_of_int i) *. 1.7
              done);
          checkb
            (Printf.sprintf "bitwise at %d domains" jobs)
            true (reference = out)))
    [ 1; 2; 4 ]

(* --- ordered maps --- *)

let test_ordered_maps () =
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let arr = Pool.map_array (fun x -> x * x) [| 1; 2; 3; 4; 5 |] in
          checkb "map_array order" true (arr = [| 1; 4; 9; 16; 25 |]);
          let l = Pool.map_list (fun x -> -x) [ 3; 1; 2 ] in
          checkb "map_list order" true (l = [ -3; -1; -2 ])))
    [ 1; 4 ]

exception Kaboom of int

let test_exception_propagates_and_pool_survives () =
  with_jobs 4 (fun () ->
      (match
         Pool.parallel_for ~grain:8 ~lo:0 ~hi:1000 (fun lo _ ->
             if lo >= 504 then raise (Kaboom lo))
       with
      | () -> Alcotest.fail "expected Kaboom"
      | exception Kaboom _ -> ());
      (* The region must have fully quiesced: the pool is immediately
         reusable and subsequent results are intact. *)
      let squares = Pool.map_array (fun i -> i * i) (Array.init 100 Fun.id) in
      checkb "pool usable after exception" true
        (squares = Array.init 100 (fun i -> i * i)))

let test_nested_runs_inline () =
  with_jobs 4 (fun () ->
      checkb "outside a region" false (Pool.in_parallel_region ());
      let saw_nested_region = ref false in
      Pool.parallel_for ~grain:1 ~lo:0 ~hi:8 (fun _ _ ->
          if Pool.in_parallel_region () then begin
            (* A nested parallel_for must run inline on this domain
               rather than deadlock waiting for the busy pool. *)
            let s = ref 0 in
            Pool.parallel_for ~lo:0 ~hi:10 (fun lo hi -> s := !s + hi - lo);
            if !s = 10 then saw_nested_region := true
          end);
      checkb "nested region ran inline" true !saw_nested_region)

(* The ["par_tasks"] delta across [f], with telemetry on. *)
let tasks_during f =
  Gb_obs.Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Gb_obs.Telemetry.set_enabled false)
    (fun () ->
      let before = Gb_obs.Telemetry.counter_snapshot () in
      f ();
      let d = Gb_obs.Telemetry.counter_delta before in
      Option.value ~default:0. (List.assoc_opt "par_tasks" d))

(* Chunks of grain 10 over 1,000 indices: ~4 per lane, pinning the
   chunking rule. *)
let chunks_at = [ (2, 8); (4, 16) ]

let test_tasks_counter () =
  List.iter
    (fun (jobs, chunks) ->
      with_jobs jobs (fun () ->
          let n =
            tasks_during (fun () ->
                Pool.parallel_for ~grain:10 ~lo:0 ~hi:1000 (fun _ _ -> ()))
          in
          check (Alcotest.float 0.)
            (Printf.sprintf "par_tasks counts every chunk at %d lanes" jobs)
            (float_of_int chunks) n))
    chunks_at

(* --- concurrent submitters ---

   Two non-pool domains submitting at once, as two Serve.Live lanes do
   whenever the pool has more than one lane: regions serialize, every
   output is exact, and every chunk of every region runs once. *)

let test_concurrent_submitters () =
  let regions = 200 and n = 1000 in
  List.iter
    (fun (jobs, chunks) ->
      with_jobs jobs (fun () ->
          let submitter id () =
            let out = Array.make n 0 in
            let exact = ref true in
            for r = 1 to regions do
              Pool.parallel_for ~grain:10 ~lo:0 ~hi:n (fun lo hi ->
                  for i = lo to hi - 1 do
                    out.(i) <- (i * r) + id
                  done);
              for i = 0 to n - 1 do
                if out.(i) <> (i * r) + id then exact := false
              done
            done;
            !exact
          in
          let results = ref [] in
          let tasks =
            tasks_during (fun () ->
                let ds = List.map (fun id -> Domain.spawn (submitter id)) [ 1; 2 ] in
                results := List.map Domain.join ds)
          in
          checkb
            (Printf.sprintf "every region exact at %d lanes" jobs)
            true
            (List.for_all Fun.id !results);
          check (Alcotest.float 0.)
            (Printf.sprintf "every chunk ran once at %d lanes" jobs)
            (float_of_int (2 * regions * chunks))
            tasks))
    chunks_at

(* --- a finished region releases its closure --- *)

let[@inline never] submit_capturing released =
  let data = Array.make 1000 0 in
  Gc.finalise (fun _ -> Atomic.set released true) data;
  Pool.parallel_for ~grain:10 ~lo:0 ~hi:1000 (fun lo hi ->
      for i = lo to hi - 1 do
        data.(i) <- i
      done)

let test_no_retention () =
  with_jobs 2 (fun () ->
      let released = Atomic.make false in
      submit_capturing released;
      (* A worker may still be stepping off the finished region's cursor
         when the submitter returns; a pool that keeps the region never
         lets go, however many collections run. *)
      let rec collected tries =
        Gc.full_major ();
        Atomic.get released
        || tries > 0
           && begin
                Unix.sleepf 0.01;
                collected (tries - 1)
              end
      in
      checkb "captured array collected after the region" true (collected 50))

(* --- Q6: overlap join bitwise identical at 1 vs 4 domains ---

   Same discipline as the GEMM test above: the sweep kernel partitions
   the variant side over pool-size-independent chunks and stitches the
   per-chunk pair lists in chunk order, so the payload fingerprint must
   not depend on the domain count. *)

let test_q6_bitwise_across_domains () =
  let ds =
    Genbase.Dataset.generate ~seed:0xC0FFEEL
      (Gb_datagen.Spec.custom ~genes:120 ~patients:300)
  in
  let digest_at jobs =
    with_jobs jobs (fun () ->
        match
          Genbase.Engine.payload_of
            (Genbase.Engine.run Genbase.Engine_sql.colstore_udf ds
               Genbase.Query.Q6_overlap ~timeout_s:60. ())
        with
        | Some p -> Gb_conformance.Compare.fingerprint p
        | None -> Alcotest.fail "Q6 did not complete")
  in
  let d1 = digest_at 1 in
  check Alcotest.string "colstore Q6 digest identical at 1 vs 4 domains" d1
    (digest_at 4);
  (* And the shared sweep kernel itself, driven directly. *)
  let vivs = Genbase.Qcommon.variant_ivs ds
  and givs = Genbase.Qcommon.gene_ivs ds in
  let sweep_at jobs =
    with_jobs jobs (fun () -> Genbase.Qcommon.overlap_sweep vivs givs)
  in
  let p1 = sweep_at 1 in
  checkb "sweep kernel pair list identical at 1 vs 4 domains" true
    (p1 = sweep_at 4);
  checkb "kernel output non-trivial" true (List.length p1 > 0)

(* --- memory budget --- *)

let test_budget () =
  checkb "non-positive capacity rejected" true
    (match Budget.create ~bytes:0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let b = Budget.create ~bytes:1000 in
  check Alcotest.int "capacity" 1000 (Budget.capacity b);
  (* Within budget: runs, and releases so a second reservation fits. *)
  let r = Budget.with_reservation b ~bytes:800 (fun () -> 1) in
  let r2 = Budget.with_reservation b ~bytes:800 (fun () -> 2) in
  check Alcotest.int "sequential reservations" 3 (r + r2);
  (* Oversized requests are admitted when the budget is idle rather
     than deadlocking forever. *)
  check Alcotest.int "oversized admitted when idle" 9
    (Budget.with_reservation b ~bytes:5000 (fun () -> 9));
  (* Release happens on exception too. *)
  (try Budget.with_reservation b ~bytes:900 (fun () -> raise Exit)
   with Exit -> ());
  check Alcotest.int "released after exception" 7
    (Budget.with_reservation b ~bytes:1000 (fun () -> 7));
  (* Two domains serialized by a budget only big enough for one: the
     concurrent in-flight total must never exceed capacity. *)
  let gate = Budget.create ~bytes:100 in
  let in_flight = Atomic.make 0 in
  let max_seen = Atomic.make 0 in
  let worker () =
    for _ = 1 to 50 do
      Budget.with_reservation gate ~bytes:60 (fun () ->
          let now = Atomic.fetch_and_add in_flight 1 + 1 in
          let rec bump () =
            let m = Atomic.get max_seen in
            if now > m && not (Atomic.compare_and_set max_seen m now) then
              bump ()
          in
          bump ();
          Domain.cpu_relax ();
          Atomic.decr in_flight)
    done
  in
  let ds = List.init 2 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  check Alcotest.int "budget admits one 60-byte holder at a time" 1
    (Atomic.get max_seen)

(* Regression: a query raising mid-execution must always release its
   reservation — the bracket is with_reservation's Fun.protect; the
   explicit reserve/release pairs must survive double release and keep
   used/try_reserve consistent for the serving layer's shed decisions. *)
let test_budget_release_on_raise () =
  let b = Budget.create ~bytes:1000 in
  check Alcotest.int "idle" 0 (Budget.used b);
  (* Exceptions at any depth release the bracket. *)
  List.iter
    (fun (exn : exn) ->
      (try
         Budget.with_reservation b ~bytes:900 (fun () ->
             check Alcotest.int "charged inside" 900 (Budget.used b);
             raise exn)
       with _ -> ());
      check Alcotest.int "released after raise" 0 (Budget.used b))
    [ Exit; Failure "engine error"; Out_of_memory; Not_found ];
  (* Explicit pairs: try_reserve accounts, refuses over-commit, and a
     double release cannot drive the ledger negative. *)
  match Budget.try_reserve b ~bytes:700 with
  | None -> Alcotest.fail "700 of 1000 should fit"
  | Some granted ->
    check Alcotest.int "granted what was asked" 700 granted;
    check Alcotest.int "used tracks the grant" 700 (Budget.used b);
    checkb "second reservation refused, not queued" true
      (Budget.try_reserve b ~bytes:400 = None);
    Budget.release b ~bytes:granted;
    check Alcotest.int "released" 0 (Budget.used b);
    Budget.release b ~bytes:granted;
    check Alcotest.int "double release clamps at zero" 0 (Budget.used b);
    checkb "budget still admits after the clamp" true
      (match Budget.try_reserve b ~bytes:1000 with
      | Some 1000 -> Budget.release b ~bytes:1000; true
      | _ -> false)

let suite =
  [
    Alcotest.test_case "jobs parsing" `Quick test_parse_jobs;
    Alcotest.test_case "parallel_for coverage" `Quick
      test_parallel_for_coverage;
    Alcotest.test_case "parallel_for bitwise vs sequential" `Quick
      test_parallel_for_matches_sequential;
    Alcotest.test_case "ordered maps" `Quick test_ordered_maps;
    Alcotest.test_case "exception propagation + reuse" `Quick
      test_exception_propagates_and_pool_survives;
    Alcotest.test_case "nested regions run inline" `Quick
      test_nested_runs_inline;
    Alcotest.test_case "par.tasks counter" `Quick test_tasks_counter;
    Alcotest.test_case "concurrent submitters" `Quick
      test_concurrent_submitters;
    Alcotest.test_case "finished region releases its closure" `Quick
      test_no_retention;
    Alcotest.test_case "Q6 bitwise at 1 vs 4 domains" `Quick
      test_q6_bitwise_across_domains;
    Alcotest.test_case "memory budget gate" `Quick test_budget;
    Alcotest.test_case "budget release on raise + explicit pairs" `Quick
      test_budget_release_on_raise;
  ]
