(** GC/allocation profiling: [Gc.quick_stat] deltas around spans.

    Allocation pressure and the collections it forces are invisible in a
    pure-time trace; this module reports them. {!with_} is a drop-in
    replacement for {!Obs.Span.with_} that attaches the span's GC delta
    ([gc_minor_words], [gc_major_words], [gc_promoted_words],
    [gc_minor_collections], [gc_major_collections], and
    [gc_top_heap_growth_words] when the heap peak moved) as close-time
    attributes, and feeds the process-global [gc_*] {!Telemetry}
    counters — from the {e outermost} profiled span only, so a cell's
    counter delta is not double-counted by its nested phase and kernel
    spans. {!start}/{!delta_attrs} serve operators with a streaming loop
    of their own (the volcano [?trace] hooks), which cannot wrap.

    Doubly gated: hooks do nothing unless both {!set_enabled}[ true] and
    {!Obs.set_enabled}[ true] — with either off no [Gc.quick_stat] is
    taken, no attribute is built and no counter moves, extending the
    bit-identical-conformance contract to these hooks. Like every
    counter, the [gc_*] counters also need {!Telemetry.set_enabled}
    [true]. *)

val enabled : unit -> bool
(** [true] iff GC profiling {e and} tracing are both on. *)

val set_enabled : bool -> unit
(** Toggle GC profiling (independent of the tracing flag; off by
    default). *)

type snapshot
(** A [Gc.quick_stat] capture. *)

val start : unit -> snapshot option
(** [Some] capture when {!enabled}; [None] (for free) otherwise. Pair
    with {!delta_attrs} around a streaming loop. *)

val delta_attrs : snapshot option -> Obs.attrs
(** Attributes for the GC delta since [start] ([[]] for [None]). Does
    not touch the [gc_*] counters — fused operator loops may abandon
    their stream mid-flight, so only {!with_} (which is exception-safe)
    feeds counters. *)

val with_ :
  ?cat:string ->
  ?attrs:Obs.attrs ->
  ?dur_of:('a -> float option) ->
  name:string ->
  (unit -> 'a) ->
  'a
(** {!Obs.Span.with_} plus a GC delta: attributes on every profiled
    span, [gc_*] counters from the outermost one. Falls back to a plain
    span when profiling is disabled (and to running [f] bare when
    tracing is). *)
