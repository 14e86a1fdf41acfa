(** The metric registry: labeled families with live quantiles, and
    label-less counters.

    Counters, gauges and histograms keyed by label sets ([engine],
    [query], [disposition], ...), with explicit bucket boundaries and
    within-bucket linear interpolation for honest p50/p99/p999, plus a
    sliding-window aggregator so tail latency is queryable mid-run.
    Label-less {!counter}s carry the engine-side work counts (flops,
    rows scanned, shuffle bytes, ...) and render like any other family.

    Every counter, gauge and histogram is gated on this module's flag;
    {!Obs}'s flag gates spans only. With telemetry disabled every
    mutation hook is a single atomic load and branch, preserving the
    disabled-mode overhead contract. Family registration is done once at
    module top level and is never gated.

    Metric names must match [[a-zA-Z_:][a-zA-Z0-9_:]*] and label names
    the same without the colon (the Prometheus exposition rules), so
    {!Expo} never needs to escape names. Label values are arbitrary.
    Label sets are canonicalized — sorted by name, duplicate names
    rejected — so observation sites can list labels in any order. *)

type labels = (string * string) list

val enabled : unit -> bool
val set_enabled : bool -> unit

type kind = Counter | Gauge | Histogram

type counter_family
type gauge_family
type hist_family

(** Default latency buckets in seconds: a 1–2.5–5 ladder from 0.5 ms to
    250 s, plus the implicit +Inf overflow bucket. *)
val default_buckets : float array

(** [counter_family name] finds or registers the family. Re-registering
    a name with a different kind raises [Invalid_argument] — a silent
    winner would skew every later observation. The first non-empty
    [help] wins. *)
val counter_family : ?help:string -> string -> counter_family

val gauge_family : ?help:string -> string -> gauge_family

(** [hist_family ?buckets name] — [buckets] are the finite upper bounds,
    strictly increasing (default {!default_buckets}). Re-registering
    with a different grid raises [Invalid_argument]. *)
val hist_family : ?help:string -> ?buckets:float array -> string -> hist_family

(** [incr f labels] adds [by] (default 1, must be >= 0) to the cell.
    No-op while disabled. *)
val incr : counter_family -> ?by:float -> labels -> unit

(** [set f labels v] sets the gauge cell. No-op while disabled. *)
val set : gauge_family -> labels -> float -> unit

(** [observe f labels v] records [v] into the histogram cell. No-op
    while disabled. *)
val observe : hist_family -> labels -> float -> unit

(** Current value of a counter cell (0 if never touched). *)
val value : counter_family -> labels -> float

(** Current value of a gauge cell (0 if never set). *)
val gauge_value : gauge_family -> labels -> float

(** Interpolated quantile of one histogram cell: the bucket where the
    cumulative count crosses [q * total], linearly interpolated between
    its bounds. [None] on an empty cell. A quantile landing in the
    overflow bucket reports the largest finite bound. *)
val quantile : hist_family -> labels -> float -> float option

(** Like {!quantile} but merging every cell of the family (all cells
    share one grid). *)
val quantile_agg : hist_family -> float -> float option

(** Width of the bucket containing [v] — the resolution of any quantile
    reported from that bucket, hence the natural agreement tolerance
    against an exact post-hoc percentile. [infinity] past the last
    finite bound. *)
val bucket_width : hist_family -> float -> float

(** {1 Label-less counters} *)

type counter

(** [counter name] finds or registers a counter family and binds its
    empty-label cell, so call sites may bind one at module top level.
    Same name and kind checks as {!counter_family}; put the unit in
    [help], e.g. ["Floating-point operations (flop)"]. *)
val counter : ?help:string -> string -> counter

(** Add to the counter: one atomic load, then a CAS. No-op while
    disabled. *)
val add : counter -> int -> unit

val addf : counter -> float -> unit
val counter_value : counter -> float

(** {1 Snapshots} — the input to {!Expo.render}. *)

type value_snap =
  | Sample of float
  | Hist_sample of {
      le : (float * int) list;
          (** cumulative counts per upper bound, [+Inf] last *)
      hsum : float;
      hcount : int;
    }

type family_snap = {
  fam : string;
  help : string;
  kind : kind;
  rows : (labels * value_snap) list;  (** sorted by label set *)
}

(** Every registered family, sorted by name, rows sorted by label set —
    a canonical order, so rendering a snapshot is deterministic. *)
val snapshot : unit -> family_snap list

(** Every counter family's empty-label cell as [(name, value)], sorted
    by name — the harness's CSV counter columns. *)
val counter_snapshot : unit -> (string * float) list

(** Counters that moved since a previous {!counter_snapshot}, sorted by
    name. *)
val counter_delta : (string * float) list -> (string * float) list

(** Zero all values and drop every labeled cell. Registrations and
    empty-label cells survive, so {!counter} handles keep counting. *)
val reset : unit -> unit

(** {1 Sliding windows}

    A ring of [windows] bucketed sub-windows of [width_s] seconds,
    advanced lazily by the caller's clock — sim seconds or wall seconds,
    the structure doesn't care. Observing or querying at time [t] zeroes
    any sub-windows the clock skipped; observations older than the ring
    are dropped. Windows are standalone per-run objects, not registered
    families. *)
module Window : sig
  type t

  val create :
    ?width_s:float -> ?windows:int -> ?buckets:float array -> unit -> t

  (** Total span covered by the ring, [width_s * windows] seconds. *)
  val horizon_s : t -> float

  val observe : t -> now:float -> float -> unit

  (** Events in the sub-windows intersecting [now - horizon_s, now]. *)
  val count : t -> now:float -> horizon_s:float -> int

  val mean : t -> now:float -> horizon_s:float -> float option

  (** Interpolated quantile over the last [horizon_s] seconds. *)
  val quantile : t -> now:float -> horizon_s:float -> float -> float option

  val advanced : t -> int
  (** Sub-window slots recycled so far by lazy advancement — how much of
      the ring has rolled over since creation. *)

  val dropped : t -> int
  (** Observations dropped for arriving more than the ring's span behind
      the newest sub-window. Non-zero means the live quantiles have
      silent gaps; snapshot consumers should surface it. *)
end
