(* Domain pool: jobs parsing, parallel_for coverage and equivalence to
   the sequential loop, map_reduce determinism, fork-join, exception
   propagation (and pool reuse afterwards), nested regions running
   inline, the par_tasks counter, and the memory-budget gate.

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

(* --- map_reduce: deterministic tree reduction --- *)

let test_map_reduce_sum () =
  (* Integer sum is associative, so every domain count agrees exactly. *)
  let n = 100_000 in
  let expect = n * (n - 1) / 2 in
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let total =
            Pool.map_reduce ~grain:1024 ~lo:0 ~hi:n
              ~map:(fun lo hi ->
                let s = ref 0 in
                for i = lo to hi - 1 do
                  s := !s + i
                done;
                !s)
              ~combine:( + ) ()
          in
          check Alcotest.int
            (Printf.sprintf "sum at %d domains" jobs)
            expect total))
    [ 1; 2; 4 ]

let test_map_reduce_float_deterministic () =
  (* Floats: the reduction tree is a pure function of (range, grain), so
     repeated runs at the same domain count are bitwise identical even
     though domains race for chunks. *)
  let n = 50_000 in
  let run () =
    Pool.map_reduce ~grain:512 ~lo:0 ~hi:n
      ~map:(fun lo hi ->
        let s = ref 0. in
        for i = lo to hi - 1 do
          s := !s +. (1. /. float_of_int (i + 1))
        done;
        !s)
      ~combine:( +. ) ()
  in
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let a = run () and b = run () in
          checkb
            (Printf.sprintf "bitwise repeatable at %d domains" jobs)
            true
            (Int64.bits_of_float a = Int64.bits_of_float b)))
    [ 1; 2; 4 ];
  (* At 1 domain map_reduce collapses to [map lo hi]: bitwise the plain
     sequential accumulation over the whole range. *)
  with_jobs 1 (fun () ->
      let seq = ref 0. in
      for i = 0 to n - 1 do
        seq := !seq +. (1. /. float_of_int (i + 1))
      done;
      checkb "1 domain is the sequential fold" true
        (Int64.bits_of_float !seq = Int64.bits_of_float (run ())))

(* --- fork-join --- *)

let test_par2_and_maps () =
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let a, b = Pool.par2 (fun () -> 6 * 7) (fun () -> "ok") in
          check Alcotest.int "par2 left" 42 a;
          check Alcotest.string "par2 right" "ok" b;
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
      let total =
        Pool.map_reduce ~lo:0 ~hi:100
          ~map:(fun lo hi ->
            let s = ref 0 in
            for i = lo to hi - 1 do
              s := !s + i
            done;
            !s)
          ~combine:( + ) ()
      in
      check Alcotest.int "pool usable after exception" 4950 total)

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

let test_tasks_counter () =
  with_jobs 2 (fun () ->
      Gb_obs.Telemetry.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Gb_obs.Telemetry.set_enabled false)
        (fun () ->
          let before = Gb_obs.Telemetry.counter_snapshot () in
          Pool.parallel_for ~grain:10 ~lo:0 ~hi:1000 (fun _ _ -> ());
          let d = Gb_obs.Telemetry.counter_delta before in
          checkb "par_tasks counts spawned chunks" true
            (match List.assoc_opt "par_tasks" d with
            | Some v -> v > 0.
            | None -> false)))

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
    Alcotest.test_case "map_reduce integer sum" `Quick test_map_reduce_sum;
    Alcotest.test_case "map_reduce float determinism" `Quick
      test_map_reduce_float_deterministic;
    Alcotest.test_case "par2 and ordered maps" `Quick test_par2_and_maps;
    Alcotest.test_case "exception propagation + reuse" `Quick
      test_exception_propagates_and_pool_survives;
    Alcotest.test_case "nested regions run inline" `Quick
      test_nested_runs_inline;
    Alcotest.test_case "par.tasks counter" `Quick test_tasks_counter;
    Alcotest.test_case "Q6 bitwise at 1 vs 4 domains" `Quick
      test_q6_bitwise_across_domains;
    Alcotest.test_case "memory budget gate" `Quick test_budget;
    Alcotest.test_case "budget release on raise + explicit pairs" `Quick
      test_budget_release_on_raise;
  ]
