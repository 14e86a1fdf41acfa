(** Structured bench output (one [BENCH_<section>.json] per bench
    section) and a noise-aware regression diff between two such files.

    Schema v1: a header ([genbase_bench] version, section, git rev,
    quick flag) plus one record per measured configuration. The diff
    compares medians key-by-key ([name]/[engine]/[query]/[size]/[unit])
    with a relative threshold {e and} a unit-aware absolute floor, so
    microsecond jitter on fast benchmarks never trips the gate while a
    genuine 2x slowdown always does. *)

val schema_version : int

type better = Lower | Higher
(** Direction of goodness for a record's statistic: runtimes are
    [Lower], availability percentages are [Higher]. The diff flips its
    regression test accordingly. *)

type record = {
  name : string;
  engine : string;  (** "" when not engine-specific *)
  query : string;  (** "" when not query-specific *)
  size : string;  (** dataset-size label, "" when n/a *)
  unit_ : string;  (** "s", "ns", "pct", ... *)
  better : better;
  iterations : int;  (** finite samples behind the statistics *)
  mean : float;
  median : float;  (** the comparison statistic *)
  p95 : float;
  min_v : float;
  max_v : float;
  counters : (string * float) list;  (** gc_* deltas, row counts, phase seconds *)
}

type file = {
  section : string;
  git_rev : string;
  quick : bool;
  records : record list;
}

val make :
  name:string ->
  ?engine:string ->
  ?query:string ->
  ?size:string ->
  ?unit_:string ->
  ?better:better ->
  ?counters:(string * float) list ->
  float list ->
  record option
(** Build a record from raw samples. Non-finite samples (failed cells
    report infinite totals) are dropped first; [None] when nothing
    finite remains. *)

val git_rev : unit -> string
(** Current commit: [GENBASE_GIT_REV] env override, else [.git/HEAD]
    (following one [ref:] indirection into loose or packed refs), else
    ["unknown"]. No subprocess. *)

val to_string : file -> string
(** Serialize — one record per line so committed baselines diff
    readably. *)

val of_string : string -> (file, string) result

val path_of_section : string -> string
(** ["BENCH_<section>.json"]. *)

val write :
  ?dir:string -> section:string -> quick:bool -> record list -> string
(** Stamp the header (current {!git_rev}) and write
    [BENCH_<section>.json] under [dir] (default cwd); returns the
    path. *)

val read : string -> (file, string) result

type verdict = Regression | Improvement | Within_noise

type comparison = {
  c_record : record;  (** the candidate-side record *)
  base_median : float;
  cand_median : float;
  change_pct : float;  (** signed; positive = candidate larger *)
  verdict : verdict;
}

type report = {
  threshold_pct : float;
  comparisons : comparison list;
  only_base : record list;
  only_cand : record list;
}

val default_min_effect : string -> float
(** Absolute change floor per unit under which any relative change is
    noise: 5 ms for "s", 500 for "ns", 1 point for "pct". *)

val diff :
  ?threshold_pct:float ->
  ?min_effect:(string -> float) ->
  file ->
  file ->
  report
(** [diff base candidate]: median-vs-median per shared key. A change is
    significant only when it exceeds {e both} [threshold_pct] (relative,
    default 20%) and [min_effect unit] (absolute); significant changes
    in the record's worse direction are {!Regression}s. Records with a
    non-finite median on either side are skipped. *)

val regressions : report -> comparison list
val improvements : report -> comparison list

val render_report : report -> string
(** Table of comparisons plus added/removed keys and a one-line
    summary. *)
