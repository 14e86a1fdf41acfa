(* GC/allocation profiling: Gc.quick_stat deltas around spans.

   Timing tells you *where* a phase spends its wall clock; the two costs
   that stay invisible in a pure-time trace are allocation pressure
   (minor/major words, promotions) and the collections it forces. This
   module snapshots [Gc.quick_stat] around any span and reports the delta
   as span attributes, and — for the outermost profiled span only, so a
   cell's counters are not double-counted by its nested phases — as
   [gc_*] {!Telemetry} counters.

   Gated on its own flag AND on {!Obs.enabled}: with either off, every
   hook reduces to a load-and-branch, takes no [Gc.quick_stat], and
   records nothing — the bit-identical-conformance contract extends to
   these hooks. The counters additionally need {!Telemetry.enabled}. *)

let on = Atomic.make false
let enabled () = Atomic.get on && Obs.enabled ()
let set_enabled b = Atomic.set on b

type snapshot = {
  s_minor_words : float;
  s_promoted_words : float;
  s_major_words : float;
  s_minor_collections : int;
  s_major_collections : int;
  s_compactions : int;
  s_top_heap_words : int;
}

let take () =
  let s = Gc.quick_stat () in
  {
    (* [quick_stat]'s minor_words only advances at GC boundaries on the
       multicore runtime, which would zero out any span too short to
       trigger a minor collection; [Gc.minor_words] reads the allocation
       pointer and is accurate at any instant. *)
    s_minor_words = Gc.minor_words ();
    s_promoted_words = s.Gc.promoted_words;
    s_major_words = s.Gc.major_words;
    s_minor_collections = s.Gc.minor_collections;
    s_major_collections = s.Gc.major_collections;
    s_compactions = s.Gc.compactions;
    s_top_heap_words = s.Gc.top_heap_words;
  }

let start () = if enabled () then Some (take ()) else None

type delta = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  top_heap_growth_words : int;
}

let delta_of s0 =
  let s1 = take () in
  {
    minor_words = s1.s_minor_words -. s0.s_minor_words;
    promoted_words = s1.s_promoted_words -. s0.s_promoted_words;
    major_words = s1.s_major_words -. s0.s_major_words;
    minor_collections = s1.s_minor_collections - s0.s_minor_collections;
    major_collections = s1.s_major_collections - s0.s_major_collections;
    compactions = s1.s_compactions - s0.s_compactions;
    top_heap_growth_words = s1.s_top_heap_words - s0.s_top_heap_words;
  }

(* Span attributes stay compact: words as floats (they can exceed an
   int's display comfort), collection counts as ints, and the top-heap
   entry only when the peak actually moved during the span. *)
let attrs_of d =
  let base =
    [
      ("gc_minor_words", Obs.Float d.minor_words);
      ("gc_major_words", Obs.Float d.major_words);
      ("gc_promoted_words", Obs.Float d.promoted_words);
      ("gc_minor_collections", Obs.Int d.minor_collections);
      ("gc_major_collections", Obs.Int d.major_collections);
    ]
  in
  if d.top_heap_growth_words > 0 then
    ("gc_top_heap_growth_words", Obs.Int d.top_heap_growth_words) :: base
  else base

let delta_attrs = function
  | None -> []
  | Some s0 -> attrs_of (delta_of s0)

(* --- counters ---

   Registered lazily so a process that never profiles never creates
   them (keeping CSV counter columns stable for unprofiled runs). *)

let counters =
  let c name help = Telemetry.counter ~help name in
  lazy
    ( c "gc_minor_words" "Words allocated in the minor heap (word)",
      c "gc_major_words" "Words allocated in the major heap (word)",
      c "gc_promoted_words" "Words promoted to the major heap (word)",
      c "gc_minor_collections" "Minor collections (collection)",
      c "gc_major_collections" "Major collections (collection)",
      c "gc_top_heap_growth_words" "Growth of the major-heap peak (word)" )

let bump d =
  let minor_w, major_w, promoted_w, minor_c, major_c, top_heap =
    Lazy.force counters
  in
  Telemetry.addf minor_w d.minor_words;
  Telemetry.addf major_w d.major_words;
  Telemetry.addf promoted_w d.promoted_words;
  Telemetry.add minor_c d.minor_collections;
  Telemetry.add major_c d.major_collections;
  if d.top_heap_growth_words > 0 then
    Telemetry.add top_heap d.top_heap_growth_words

(* Depth of nested [with_] frames, tracked per domain (pool workers
   profile their own task trees independently). Only the outermost
   profiled span feeds the [gc_*] counters: nested phases and kernels
   would otherwise count the same allocation two or three times over,
   making a cell's counter delta meaningless. Attributes are per-span
   and carry the nested deltas regardless of depth. *)
let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let with_ ?cat ?(attrs = []) ?dur_of ~name f =
  if not (enabled ()) then Obs.Span.with_ ?cat ~attrs ?dur_of ~name f
  else begin
    let s0 = take () in
    let depth = Domain.DLS.get depth_key in
    incr depth;
    Fun.protect
      ~finally:(fun () -> decr depth)
      (fun () ->
        Obs.Span.with_ ?cat ~attrs ?dur_of ~name
          ~attrs_after:(fun () ->
            let d = delta_of s0 in
            if !depth = 1 then bump d;
            attrs_of d)
          f)
  end
