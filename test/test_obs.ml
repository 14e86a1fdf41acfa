(* Observability subsystem: span discipline (nesting, exception safety,
   balance), the disabled-mode zero-event contract, simulated-clock span
   determinism, counter snapshots, and the Chrome trace_event export
   round-trip. *)

open Gb_obs
module Cluster = Gb_cluster.Cluster

let check = Alcotest.check
let checkb = Alcotest.(check bool)

(* Every test runs with the collector and registry reset and tracing
   plus telemetry enabled unless it says otherwise, and must leave both
   disabled for the rest of the suite (the flags are process-global). *)
let with_tracing ?(enabled = true) f =
  Obs.set_enabled enabled;
  Telemetry.set_enabled enabled;
  Obs.reset ();
  Telemetry.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Telemetry.set_enabled false)
    f

let spans events =
  List.filter_map
    (function Obs.Span_ev s -> Some s | Obs.Instant_ev _ -> None)
    events

(* --- span nesting, balance, exception safety --- *)

let test_span_nesting () =
  with_tracing (fun () ->
      let r =
        Obs.Span.with_ ~name:"outer" (fun () ->
            Obs.Span.with_ ~name:"inner" (fun () -> 42))
      in
      check Alcotest.int "result passes through" 42 r;
      check Alcotest.int "balanced after use" 0 (Obs.open_depth ());
      match spans (Obs.events ()) with
      | [ inner; outer ] ->
        (* Spans are recorded at close, so the inner span lands first. *)
        check Alcotest.string "inner first" "inner" inner.Obs.name;
        check Alcotest.string "outer second" "outer" outer.Obs.name;
        check Alcotest.int "inner's parent is outer" outer.Obs.id
          inner.Obs.parent;
        check Alcotest.int "outer is a root" (-1) outer.Obs.parent;
        checkb "inner contained in outer" true
          (inner.Obs.t0 >= outer.Obs.t0
          && inner.Obs.t0 +. inner.Obs.dur
             <= outer.Obs.t0 +. outer.Obs.dur +. 1e-9)
      | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l))

exception Boom

let test_span_exception_balance () =
  with_tracing (fun () ->
      (try
         Obs.Span.with_ ~name:"outer" (fun () ->
             Obs.Span.with_ ~name:"failing" (fun () -> raise Boom))
       with Boom -> ());
      check Alcotest.int "stack balanced after raise" 0 (Obs.open_depth ());
      let ss = spans (Obs.events ()) in
      check Alcotest.int "both spans closed" 2 (List.length ss);
      let failing = List.find (fun s -> s.Obs.name = "failing") ss in
      checkb "raising span flagged as error" true
        (List.mem_assoc "error" failing.Obs.attrs);
      (* The collector must still be usable after an exception. *)
      Obs.Span.with_ ~name:"after" (fun () -> ());
      check Alcotest.int "subsequent spans are roots again" (-1)
        (List.find (fun s -> s.Obs.name = "after") (spans (Obs.events ())))
          .Obs.parent)

let test_dur_of_override () =
  with_tracing (fun () ->
      let r =
        Obs.Span.with_ ~name:"fixed" ~dur_of:(fun x -> Some (float_of_int x))
          (fun () -> 3)
      in
      check Alcotest.int "result" 3 r;
      match spans (Obs.events ()) with
      | [ s ] -> check (Alcotest.float 1e-12) "duration overridden" 3. s.Obs.dur
      | l -> Alcotest.failf "expected 1 span, got %d" (List.length l))

(* --- disabled mode records nothing --- *)

let test_disabled_zero_events () =
  with_tracing ~enabled:false (fun () ->
      let c = Telemetry.counter "test_disabled" in
      Obs.Span.with_ ~name:"invisible" (fun () ->
          Obs.Span.emit ~name:"sim" ~t0:0. ~t1:1. ();
          Obs.Span.instant ~name:"blip" ();
          Telemetry.add c 7;
          Obs.Log.line ~sink:ignore "progress");
      check Alcotest.int "no events collected" 0 (Obs.event_count ());
      check (Alcotest.float 0.) "counter untouched" 0.
        (Telemetry.counter_value c);
      check Alcotest.int "no open frames" 0 (Obs.open_depth ()))

(* --- simulated-clock spans are a pure function of the seed --- *)

let sim_run () =
  Obs.reset ();
  Telemetry.reset ();
  let c = Cluster.create ~nodes:3 () in
  Cluster.set_task_cost c (Some 0.02);
  Cluster.set_fault_plan c
    (Genbase.Harness.chaos_plan Genbase.Harness.default_chaos
       ~engine:"obs-test" ~nodes:3);
  for _ = 1 to 4 do
    ignore (Cluster.superstep c (fun rank -> rank));
    ignore (Cluster.allreduce_sum c (Array.make 3 [| 1.; 2. |]))
  done;
  Cluster.shuffle c ~total_bytes:(1 lsl 16);
  List.filter
    (fun s -> s.Obs.track = Obs.Sim)
    (spans (Obs.events ()))

let test_sim_spans_deterministic () =
  with_tracing (fun () ->
      let a = sim_run () and b = sim_run () in
      checkb "sim trace non-empty" true (List.length a > 0);
      check Alcotest.int "same span count" (List.length a) (List.length b);
      List.iter2
        (fun x y ->
          check Alcotest.string "same name" x.Obs.name y.Obs.name;
          check Alcotest.int "same node" x.Obs.tid y.Obs.tid;
          check (Alcotest.float 0.) "same start" x.Obs.t0 y.Obs.t0;
          check (Alcotest.float 0.) "same duration" x.Obs.dur y.Obs.dur)
        a b;
      checkb "per-node attribution present" true
        (List.exists (fun s -> s.Obs.tid > 1) a))

(* --- counters --- *)

let test_counter_snapshot_sorted () =
  with_tracing (fun () ->
      let cb = Telemetry.counter "test_bbb"
      and ca = Telemetry.counter "test_aaa" in
      Telemetry.add cb 2;
      let before = Telemetry.counter_snapshot () in
      Telemetry.add ca 1;
      Telemetry.addf cb 0.5;
      let snap = Telemetry.counter_snapshot () in
      checkb "snapshot sorted by name" true
        (let names = List.map fst snap in
         names = List.sort compare names);
      check (Alcotest.float 0.) "int and float adds accumulate" 2.5
        (List.assoc "test_bbb" snap);
      let d = Telemetry.counter_delta before in
      check (Alcotest.float 0.) "delta isolates movement" 1.
        (List.assoc "test_aaa" d);
      check (Alcotest.float 0.) "delta of moved counter" 0.5
        (List.assoc "test_bbb" d);
      (* reset zeroes a label-less cell in place, so a module-level
         handle keeps counting into the registry. *)
      Telemetry.reset ();
      Telemetry.add ca 2;
      check Alcotest.(option (float 0.)) "handle survives reset" (Some 2.)
        (List.assoc_opt "test_aaa" (Telemetry.counter_snapshot ())))

let test_counters_domain_safe () =
  (* Hammer one counter and one histogram from 4 domains at once; the
     atomic CAS loop and the family lock must lose no updates. *)
  with_tracing (fun () ->
      let c = Telemetry.counter "test_hammer" in
      let h = Telemetry.hist_family "test_hammer_hist" in
      let per_domain = 25_000 in
      let work () =
        for i = 1 to per_domain do
          Telemetry.add c 1;
          if i land 255 = 0 then
            Telemetry.observe h [] (float_of_int (i land 31))
        done
      in
      let domains = List.init 4 (fun _ -> Domain.spawn work) in
      List.iter Domain.join domains;
      check (Alcotest.float 0.) "no lost counter increments"
        (float_of_int (4 * per_domain))
        (Telemetry.counter_value c);
      let observed =
        List.find_map
          (fun (s : Telemetry.family_snap) ->
            match (s.Telemetry.fam, s.Telemetry.rows) with
            | "test_hammer_hist", [ ([], Telemetry.Hist_sample { hcount; _ }) ]
              ->
              Some hcount
            | _ -> None)
          (Telemetry.snapshot ())
      in
      check Alcotest.(option int) "no lost histogram observations"
        (Some (4 * (per_domain / 256)))
        observed;
      (* Spans opened on a spawned domain must not corrupt the caller's
         stack: each domain has its own DLS frame list. *)
      let d =
        Domain.spawn (fun () ->
            Obs.Span.with_ ~name:"other-domain" (fun () -> Obs.open_depth ()))
      in
      check Alcotest.int "span depth is per-domain" 1 (Domain.join d);
      check Alcotest.int "caller stack untouched" 0 (Obs.open_depth ()))

(* --- Chrome trace_event export round-trip --- *)

let test_chrome_roundtrip () =
  with_tracing (fun () ->
      Obs.Span.with_ ~name:"wall \"quoted\"" ~attrs:[ ("k", Obs.Int 3) ]
        (fun () -> Obs.Span.instant ~name:"blip" ());
      Obs.Span.emit ~name:"sim-task" ~tid:2 ~t0:1.5 ~t1:2.25 ();
      let events = Obs.events () in
      let json = Trace_export.chrome_json events in
      (match Trace_export.validate_chrome json with
      | Ok n -> check Alcotest.int "non-metadata event count" 3 n
      | Error e -> Alcotest.failf "invalid chrome trace: %s" e);
      match Trace_export.parse json with
      | Error e -> Alcotest.failf "parse failed: %s" e
      | Ok (Trace_export.Obj fields) -> (
        match List.assoc_opt "traceEvents" fields with
        | Some (Trace_export.Arr evs) ->
          let pids =
            List.filter_map
              (function
                | Trace_export.Obj f -> (
                  match
                    (List.assoc_opt "ph" f, List.assoc_opt "pid" f)
                  with
                  | Some (Trace_export.JStr ph), Some (Trace_export.Num pid)
                    when ph <> "M" ->
                    Some (int_of_float pid)
                  | _ -> None)
                | _ -> None)
              evs
          in
          checkb "wall events on pid 1" true (List.mem 1 pids);
          checkb "sim events on pid 2" true (List.mem 2 pids);
          checkb "sim tid preserved" true
            (List.exists
               (function
                 | Trace_export.Obj f ->
                   List.assoc_opt "tid" f = Some (Trace_export.Num 2.)
                   && List.assoc_opt "pid" f = Some (Trace_export.Num 2.)
                 | _ -> false)
               evs)
        | _ -> Alcotest.fail "traceEvents array missing")
      | Ok _ -> Alcotest.fail "top level is not an object")

let test_top_spans () =
  with_tracing (fun () ->
      Obs.Span.emit ~track:Obs.Wall ~cat:"cell" ~name:"root" ~t0:0. ~t1:10. ();
      Obs.Span.emit ~track:Obs.Wall ~name:"big" ~t0:0. ~t1:3. ();
      Obs.Span.emit ~track:Obs.Wall ~name:"small" ~t0:3. ~t1:4. ();
      match Trace_export.top_spans ~k:1 ~exclude_cat:"cell" (Obs.events ()) with
      | [ (name, total) ] ->
        check Alcotest.string "largest non-cell span" "big" name;
        check (Alcotest.float 1e-9) "total" 3. total
      | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l))

(* --- GC profiling gates --- *)

let gc_counters_moved before =
  List.exists
    (fun (n, _) -> String.starts_with ~prefix:"gc_" n)
    (Telemetry.counter_delta before)

let churn () =
  (* Enough small allocations to guarantee a visible minor-words delta
     whenever profiling is live. *)
  let r = ref [] in
  for i = 1 to 10_000 do
    r := [ i ] :: !r
  done;
  ignore (Sys.opaque_identity !r)

let test_gc_disabled_moves_nothing () =
  with_tracing (fun () ->
      (* Profiling defaults to off: a profiled span degrades to a plain
         span — no gc_* counters, no gc_* attributes, free snapshots. *)
      let before = Telemetry.counter_snapshot () in
      Profile.with_ ~name:"alloc" churn;
      checkb "no gc_* counters when profiling off" false
        (gc_counters_moved before);
      let s =
        List.find (fun s -> s.Obs.name = "alloc") (spans (Obs.events ()))
      in
      checkb "no gc_* attrs when profiling off" false
        (List.exists
           (fun (k, _) -> String.length k >= 3 && String.sub k 0 3 = "gc_")
           s.Obs.attrs);
      checkb "start is free when off" true (Profile.start () = None);
      checkb "delta_attrs of None is empty" true (Profile.delta_attrs None = []))

let test_gc_double_gate () =
  (* Enabling the profiler without tracing must still record nothing
     (the bit-identical-conformance contract), even with telemetry on;
     tracing without telemetry attaches attributes but moves no counter;
     enabling all three moves the counters. *)
  Fun.protect
    ~finally:(fun () -> Profile.set_enabled false)
    (fun () ->
      with_tracing ~enabled:false (fun () ->
          Profile.set_enabled true;
          Telemetry.set_enabled true;
          let before = Telemetry.counter_snapshot () in
          Profile.with_ ~name:"dark" churn;
          check Alcotest.int "no events without tracing" 0 (Obs.event_count ());
          checkb "no counters without tracing" false
            (gc_counters_moved before));
      with_tracing (fun () ->
          Profile.set_enabled true;
          Telemetry.set_enabled false;
          let before = Telemetry.counter_snapshot () in
          Profile.with_ ~name:"no-telemetry" churn;
          checkb "no counters without telemetry" false
            (gc_counters_moved before));
      with_tracing (fun () ->
          Profile.set_enabled true;
          let before = Telemetry.counter_snapshot () in
          Profile.with_ ~name:"lit" churn;
          checkb "counters move when every gate is open" true
            (gc_counters_moved before);
          checkb "minor words observed" true
            (List.assoc_opt "gc_minor_words" (Telemetry.counter_delta before)
             |> Option.fold ~none:false ~some:(fun w -> w > 0.));
          let s =
            List.find (fun s -> s.Obs.name = "lit") (spans (Obs.events ()))
          in
          checkb "gc_minor_words attr attached" true
            (List.mem_assoc "gc_minor_words" s.Obs.attrs)))

(* --- bench JSON round-trip and diff --- *)

let checkf = check (Alcotest.float 1e-9)

let check_record_eq (a : Bench_json.record) (b : Bench_json.record) =
  check Alcotest.string "name" a.Bench_json.name b.Bench_json.name;
  check Alcotest.string "engine" a.Bench_json.engine b.Bench_json.engine;
  check Alcotest.string "query" a.Bench_json.query b.Bench_json.query;
  check Alcotest.string "size" a.Bench_json.size b.Bench_json.size;
  check Alcotest.string "unit" a.Bench_json.unit_ b.Bench_json.unit_;
  checkb "better" true (a.Bench_json.better = b.Bench_json.better);
  check Alcotest.int "iterations" a.Bench_json.iterations
    b.Bench_json.iterations;
  checkf "mean" a.Bench_json.mean b.Bench_json.mean;
  checkf "median" a.Bench_json.median b.Bench_json.median;
  checkf "p95" a.Bench_json.p95 b.Bench_json.p95;
  checkf "min" a.Bench_json.min_v b.Bench_json.min_v;
  checkf "max" a.Bench_json.max_v b.Bench_json.max_v;
  check Alcotest.int "counter count" (List.length a.Bench_json.counters)
    (List.length b.Bench_json.counters);
  List.iter2
    (fun (ka, va) (kb, vb) ->
      check Alcotest.string "counter key" ka kb;
      checkf ("counter " ^ ka) va vb)
    a.Bench_json.counters b.Bench_json.counters

let test_bench_json_roundtrip () =
  (* make drops non-finite samples (failed cells report infinite
     totals) and refuses an all-non-finite batch. *)
  checkb "all-non-finite is None" true
    (Bench_json.make ~name:"dead" [ infinity; nan ] = None);
  let r1 =
    Option.get
      (Bench_json.make ~name:"cell-n1" ~engine:"sql" ~query:"q1" ~size:"small"
         ~counters:[ ("rows", 8400.); ("gc.minor_words", 123456.) ]
         [ 1.5; 2.5; 3.5; infinity ])
  in
  check Alcotest.int "non-finite sample dropped" 3 r1.Bench_json.iterations;
  let r2 =
    Option.get
      (Bench_json.make ~name:"availability" ~engine:"hadoop" ~unit_:"pct"
         ~better:Bench_json.Higher [ 87.5 ])
  in
  let f =
    {
      Bench_json.section = "test";
      git_rev = "deadbeef";
      quick = true;
      records = [ r1; r2 ];
    }
  in
  match Bench_json.of_string (Bench_json.to_string f) with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok g ->
    check Alcotest.string "section" "test" g.Bench_json.section;
    check Alcotest.string "git_rev" "deadbeef" g.Bench_json.git_rev;
    checkb "quick flag" true g.Bench_json.quick;
    check Alcotest.int "record count" 2 (List.length g.Bench_json.records);
    List.iter2 check_record_eq f.Bench_json.records g.Bench_json.records

(* A number past the float range is malformed input, not infinity
   (which Bench_json would write back as null): both JSON consumers
   return a positioned Error. *)
let test_json_rejects_overflow () =
  List.iter
    (fun lit ->
      match Trace_export.parse (Printf.sprintf "{\"ts\":%s}" lit) with
      | Ok _ -> Alcotest.failf "%s accepted" lit
      | Error e ->
        checkb (lit ^ " error carries an offset") true
          (Astring_contains.contains e "offset"))
    [ "1e400"; "-1e400"; "1E999" ];
  checkb "finite extremes still parse" true
    (Result.is_ok (Trace_export.parse "[1e308, -1.7e308, 0]"));
  let file median =
    Printf.sprintf
      {|{"genbase_bench":1,"section":"t","git_rev":"x","quick":true,"records":[
{"name":"k","engine":"","query":"","size":"","unit":"s","better":"lower","iterations":1,"mean":1.5,"median":%s,"p95":1.5,"min":1.5,"max":1.5}
]}|}
      median
  in
  checkb "finite median parses" true
    (Result.is_ok (Bench_json.of_string (file "1.5")));
  checkb "overflowing median rejected" true
    (Result.is_error (Bench_json.of_string (file "1e400")))

let test_bench_diff () =
  let time_rec v = Option.get (Bench_json.make ~name:"kernel" [ v ]) in
  let avail_rec v =
    Option.get
      (Bench_json.make ~name:"availability" ~unit_:"pct"
         ~better:Bench_json.Higher [ v ])
  in
  let file records =
    { Bench_json.section = "t"; git_rev = "x"; quick = false; records }
  in
  (* Identical runs compare clean. *)
  let same = Bench_json.diff (file [ time_rec 1.0 ]) (file [ time_rec 1.0 ]) in
  checkb "identical: no regressions" true (Bench_json.regressions same = []);
  checkb "identical: no improvements" true (Bench_json.improvements same = []);
  (* A genuine 2x slowdown is flagged. *)
  let rep = Bench_json.diff (file [ time_rec 1.0 ]) (file [ time_rec 2.0 ]) in
  (match Bench_json.regressions rep with
  | [ c ] ->
    checkf "2x slowdown is +100%" 100. c.Bench_json.change_pct;
    checkb "verdict" true (c.Bench_json.verdict = Bench_json.Regression)
  | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l));
  (* Higher-is-better flips the direction: dropping availability is a
     regression even though the number went down. *)
  let repa =
    Bench_json.diff (file [ avail_rec 100. ]) (file [ avail_rec 50. ])
  in
  checkb "availability drop is a regression" true
    (Bench_json.regressions repa <> []);
  (* Changes under the unit's absolute floor are noise no matter the
     relative magnitude (1 ms on a seconds-unit record). *)
  let repn =
    Bench_json.diff (file [ time_rec 0.001 ]) (file [ time_rec 0.002 ])
  in
  checkb "sub-floor change is noise" true (Bench_json.regressions repn = []);
  (* Keys present on only one side are reported, not compared. *)
  let repk = Bench_json.diff (file [ time_rec 1.0 ]) (file [ avail_rec 9. ]) in
  check Alcotest.int "only_base" 1 (List.length repk.Bench_json.only_base);
  check Alcotest.int "only_cand" 1 (List.length repk.Bench_json.only_cand)

(* --- Telemetry: labeled families --- *)

(* Tests use uniquely named families; registrations are process-global
   by design (module-level handles bind to them). *)

let test_telemetry_families () =
  with_tracing (fun () ->
      let c = Telemetry.counter_family "test_tele_requests_total" in
      (* Find-or-register: same name, same family. *)
      let c' = Telemetry.counter_family "test_tele_requests_total" in
      Telemetry.incr c [ ("engine", "A"); ("query", "svd") ];
      Telemetry.incr c' ~by:2. [ ("query", "svd"); ("engine", "A") ];
      (* Label canonicalization: order doesn't matter. *)
      check Alcotest.(float 1e-9) "one cell, canonical labels" 3.
        (Telemetry.value c [ ("engine", "A"); ("query", "svd") ]);
      checkb "kind clash raises" true
        (match Telemetry.gauge_family "test_tele_requests_total" with
        | exception Invalid_argument _ -> true
        | _ -> false);
      let _ = Telemetry.hist_family ~buckets:[| 1.; 2. |] "test_tele_h" in
      checkb "bucket-grid clash raises" true
        (match Telemetry.hist_family ~buckets:[| 1.; 3. |] "test_tele_h" with
        | exception Invalid_argument _ -> true
        | _ -> false);
      (* A label-less handle is its counter family's empty-label cell,
         under the same kind and name checks. *)
      let h = Telemetry.counter "test_tele_requests_total" in
      Telemetry.incr c [];
      Telemetry.add h 2;
      check Alcotest.(float 1e-9) "handle is the family's [] cell" 3.
        (Telemetry.counter_value h);
      checkb "counter over a histogram raises" true
        (match Telemetry.counter "test_tele_h" with
        | exception Invalid_argument _ -> true
        | _ -> false);
      checkb "dotted counter name raises" true
        (match Telemetry.counter "test.dotted" with
        | exception Invalid_argument _ -> true
        | _ -> false);
      checkb "invalid metric name raises" true
        (match Telemetry.counter_family "0bad name" with
        | exception Invalid_argument _ -> true
        | _ -> false);
      checkb "duplicate label name raises" true
        (match Telemetry.incr c [ ("engine", "A"); ("engine", "B") ] with
        | exception Invalid_argument _ -> true
        | _ -> false);
      checkb "negative increment raises" true
        (match Telemetry.incr c ~by:(-1.) [ ("engine", "A") ] with
        | exception Invalid_argument _ -> true
        | _ -> false);
      (* Disabled: hooks are no-ops, values freeze. *)
      Telemetry.set_enabled false;
      Telemetry.incr c [ ("engine", "A"); ("query", "svd") ];
      Telemetry.set_enabled true;
      check Alcotest.(float 1e-9) "disabled incr is a no-op" 3.
        (Telemetry.value c [ ("engine", "A"); ("query", "svd") ]))

let test_telemetry_quantiles () =
  with_tracing (fun () ->
      let h =
        Telemetry.hist_family ~buckets:[| 1.; 2.; 4. |] "test_tele_lat"
      in
      checkb "empty cell has no quantile" true
        (Telemetry.quantile h [ ("engine", "A") ] 0.5 = None);
      for _ = 1 to 10 do
        Telemetry.observe h [ ("engine", "A") ] 0.5;
        Telemetry.observe h [ ("engine", "B") ] 1.5
      done;
      let q fam labels p =
        match Telemetry.quantile fam labels p with
        | Some v -> v
        | None -> Alcotest.fail "expected a quantile"
      in
      (* Per-cell: all of A's mass is in (0, 1]. *)
      check Alcotest.(float 1e-9) "cell p50 interpolates" 0.5
        (q h [ ("engine", "A") ] 0.5);
      (* Aggregated across cells: 10 in (0,1] + 10 in (1,2]. *)
      let qa p =
        match Telemetry.quantile_agg h p with
        | Some v -> v
        | None -> Alcotest.fail "expected a quantile"
      in
      check Alcotest.(float 1e-9) "agg p50" 1.0 (qa 0.5);
      check Alcotest.(float 1e-9) "agg p95" 1.9 (qa 0.95);
      (* Overflow bucket reports the largest finite bound. *)
      Telemetry.observe h [ ("engine", "C") ] 100.;
      check Alcotest.(float 1e-9) "overflow clamps to last bound" 4.0
        (q h [ ("engine", "C") ] 0.99);
      check Alcotest.(float 1e-9) "bucket width at 1.5" 1.0
        (Telemetry.bucket_width h 1.5);
      checkb "bucket width past last bound is infinite" true
        (Telemetry.bucket_width h 10. = infinity))

let test_telemetry_window () =
  let module W = Telemetry.Window in
  let w = W.create ~width_s:1.0 ~windows:4 ~buckets:[| 1.; 2.; 4. |] () in
  check Alcotest.(float 1e-9) "horizon" 4.0 (W.horizon_s w);
  W.observe w ~now:0.5 0.5;
  W.observe w ~now:1.5 1.5;
  W.observe w ~now:2.5 1.5;
  check Alcotest.int "all three in horizon" 3 (W.count w ~now:2.5 ~horizon_s:4.);
  check Alcotest.int "trailing second only" 1
    (W.count w ~now:2.5 ~horizon_s:1.);
  (match W.mean w ~now:2.5 ~horizon_s:4. with
  | Some m -> checkb "mean of mixed sub-windows" true (Float.abs (m -. (3.5 /. 3.)) < 1e-9)
  | None -> Alcotest.fail "expected a mean");
  (* Advancing the clock past the ring drops the old sub-windows. *)
  W.observe w ~now:10.0 3.0;
  check Alcotest.int "old sub-windows dropped" 1
    (W.count w ~now:10.0 ~horizon_s:4.);
  (* Observations older than the ring are ignored, not misfiled. *)
  W.observe w ~now:3.0 0.5;
  check Alcotest.int "too-old observation dropped" 1
    (W.count w ~now:10.0 ~horizon_s:4.)

(* --- Expo: exposition round-trip --- *)

let test_expo_roundtrip () =
  with_tracing (fun () ->
      let c = Telemetry.counter_family ~help:"Total\nover lines \\ "
          "test_expo_total"
      in
      (* Empty label set, plus values exercising every escape. *)
      Telemetry.incr c [];
      Telemetry.incr c [ ("path", "a\\b") ];
      Telemetry.incr c [ ("path", "say \"hi\"\nthen leave") ];
      let g = Telemetry.gauge_family "test_expo_gauge" in
      Telemetry.set g [ ("engine", "A") ] (-2.5);
      let h = Telemetry.hist_family ~buckets:[| 0.5; 1. |] "test_expo_h" in
      Telemetry.observe h [ ("q", "svd") ] 0.25;
      Telemetry.observe h [ ("q", "svd") ] 2.0;
      let text = Expo.render (Telemetry.snapshot ()) in
      (match Expo.validate text with
      | Ok n -> checkb "at least our three families" true (n >= 3)
      | Error e -> Alcotest.fail ("round-trip failed: " ^ e));
      match Expo.parse text with
      | Error e -> Alcotest.fail ("parse failed: " ^ e)
      | Ok snaps ->
        checkb "parse -> render is the fixed point" true
          (String.equal (Expo.render snaps) text);
        (* The escaped label value survives the round trip intact. *)
        let row_labels =
          List.concat_map
            (fun (s : Telemetry.family_snap) ->
              if s.Telemetry.fam = "test_expo_total" then
                List.map fst s.Telemetry.rows
              else [])
            snaps
        in
        checkb "escaped value preserved" true
          (List.mem
             [ ("path", "say \"hi\"\nthen leave") ]
             row_labels))

let test_expo_rejects_corruption () =
  with_tracing (fun () ->
      let h = Telemetry.hist_family ~buckets:[| 1.; 2. |] "test_expo_bad" in
      Telemetry.observe h [] 0.5;
      let text = Expo.render (Telemetry.snapshot ()) in
      (* A non-cumulative bucket ladder must be rejected, not lapped up:
         bump a mid-ladder count above the +Inf total. *)
      let replace ~sub ~by s =
        let n = String.length s and m = String.length sub in
        let b = Buffer.create n in
        let i = ref 0 in
        while !i < n do
          if !i + m <= n && String.sub s !i m = sub then begin
            Buffer.add_string b by;
            i := !i + m
          end
          else begin
            Buffer.add_char b s.[!i];
            incr i
          end
        done;
        Buffer.contents b
      in
      let broken = replace ~sub:{|le="1"} 1|} ~by:{|le="1"} 2|} text in
      checkb "ladder corruption detected" true
        (match Expo.parse broken with Error _ -> true | Ok _ -> false))

let prop_expo_fixed_point =
  (* Arbitrary label values — including quotes, backslashes and newlines
     — and arbitrary sample values: render -> parse -> render must be
     the identity on the rendered text. *)
  let value_gen =
    QCheck.Gen.(
      string_size ~gen:(oneofl [ 'a'; 'z'; '"'; '\\'; '\n'; ' '; '{'; '}' ])
        (0 -- 8))
  in
  let case_gen =
    QCheck.Gen.(
      pair
        (list_size (0 -- 3) (pair (oneofl [ "engine"; "q"; "path" ]) value_gen))
        (list_size (1 -- 5) (float_bound_exclusive 10.)))
  in
  QCheck.Test.make ~name:"exposition render/parse fixed point" ~count:60
    (QCheck.make case_gen) (fun (labels, values) ->
      with_tracing (fun () ->
          (* Duplicate label names are rejected by canon; dedup first. *)
          let labels =
            List.sort_uniq (fun (a, _) (b, _) -> compare a b) labels
          in
          let c = Telemetry.counter_family "test_prop_total" in
          let h = Telemetry.hist_family ~buckets:[| 0.1; 1.; 5. |] "test_prop_h" in
          Telemetry.incr c labels;
          List.iter (fun v -> Telemetry.observe h labels v) values;
          let text = Expo.render (Telemetry.snapshot ()) in
          match Expo.parse text with
          | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e
          | Ok snaps -> String.equal (Expo.render snaps) text))

(* --- SLO monitor --- *)

let test_slo_burn_rate_alerts () =
  let feed m =
    (* 30 good responses, then a hard outage, then recovery: the alert
       must fire during the outage and resolve once the short window
       drains. Factor 5 on a 99% target fires at 5% bad. *)
    let t = ref 0. in
    let step ok =
      Slo.observe m ~now:!t ~ok ~latency_s:0.1;
      t := !t +. 0.25
    in
    for _ = 1 to 30 do step true done;
    for _ = 1 to 30 do step false done;
    for _ = 1 to 200 do step true done
  in
  let objectives =
    [
      Slo.objective ~factor:5. ~name:"avail" ~kind:Slo.Availability
        ~target:0.99 ~long_s:12. ();
    ]
  in
  let m1 = Slo.create ~objectives () in
  let m2 = Slo.create ~objectives () in
  feed m1;
  feed m2;
  let a1 = Slo.alerts m1 in
  checkb "alert fired" true
    (List.exists (fun a -> a.Slo.a_firing) a1);
  checkb "alert resolved" true
    (List.exists (fun a -> not a.Slo.a_firing) a1);
  checkb "fire precedes resolve" true
    (match a1 with a :: _ -> a.Slo.a_firing | [] -> false);
  checkb "identical feed, identical alert instants" true (a1 = Slo.alerts m2);
  checkb "nothing firing after recovery" true (Slo.firing m1 = []);
  (* min_events gates flapping on thin data: an all-bad trickle below
     the floor must stay silent. *)
  let m3 =
    Slo.create
      ~objectives:
        [
          Slo.objective ~factor:5. ~min_events:50 ~name:"thin"
            ~kind:Slo.Availability ~target:0.99 ~long_s:12. ();
        ]
      ()
  in
  for i = 1 to 20 do
    Slo.observe m3 ~now:(float_of_int i *. 0.1) ~ok:false ~latency_s:0.1
  done;
  checkb "below min_events stays silent" true (Slo.alerts m3 = []);
  (* Latency objectives count slow-but-served responses as bad. *)
  let m4 =
    Slo.create
      ~objectives:
        [
          Slo.objective ~factor:5. ~min_events:10 ~name:"lat"
            ~kind:(Slo.Latency_under 1.0) ~target:0.9 ~long_s:12. ();
        ]
      ()
  in
  for i = 1 to 40 do
    Slo.observe m4 ~now:(float_of_int i *. 0.1) ~ok:true ~latency_s:5.0
  done;
  checkb "slow responses trip a latency objective" true
    (List.exists (fun a -> a.Slo.a_firing) (Slo.alerts m4))

let suite =
  [
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "exception-safe balance" `Quick
      test_span_exception_balance;
    Alcotest.test_case "dur_of override" `Quick test_dur_of_override;
    Alcotest.test_case "disabled mode records nothing" `Quick
      test_disabled_zero_events;
    Alcotest.test_case "sim spans deterministic" `Quick
      test_sim_spans_deterministic;
    Alcotest.test_case "counter snapshots" `Quick test_counter_snapshot_sorted;
    Alcotest.test_case "counters safe under 4 domains" `Quick
      test_counters_domain_safe;
    Alcotest.test_case "chrome JSON round-trip" `Quick test_chrome_roundtrip;
    Alcotest.test_case "top spans for CSV breakdown" `Quick test_top_spans;
    Alcotest.test_case "gc profiling off by default" `Quick
      test_gc_disabled_moves_nothing;
    Alcotest.test_case "gc profiling double gate" `Quick test_gc_double_gate;
    Alcotest.test_case "bench JSON round-trip" `Quick
      test_bench_json_roundtrip;
    Alcotest.test_case "JSON rejects overflowing numbers" `Quick
      test_json_rejects_overflow;
    Alcotest.test_case "bench diff verdicts" `Quick test_bench_diff;
    Alcotest.test_case "telemetry labeled families" `Quick
      test_telemetry_families;
    Alcotest.test_case "telemetry interpolated quantiles" `Quick
      test_telemetry_quantiles;
    Alcotest.test_case "telemetry sliding window" `Quick
      test_telemetry_window;
    Alcotest.test_case "exposition round-trip" `Quick test_expo_roundtrip;
    Alcotest.test_case "exposition rejects corruption" `Quick
      test_expo_rejects_corruption;
    QCheck_alcotest.to_alcotest prop_expo_fixed_point;
    Alcotest.test_case "slo burn-rate alerts" `Quick
      test_slo_burn_rate_alerts;
  ]
