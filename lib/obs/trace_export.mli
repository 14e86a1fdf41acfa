(** Trace sinks: Chrome [trace_event] JSON export and its strict
    importer, and text flame/summary renderers. *)

val chrome_json : Obs.event list -> string
(** Serialize events in the Chrome trace_event JSON-object format,
    loadable in chrome://tracing and Perfetto. Wall-track events land on
    pid 1 ("wall clock"), simulated-clock events on pid 2 ("simulated
    clock"); cluster node ids become thread tracks. Timestamps are
    microseconds; spans use "X" complete events, instants use "i". *)

val events_of_chrome : string -> (Obs.event list, string) result
(** Inverse of {!chrome_json}: reconstruct events from a serialized
    trace, in file order, parsing the document once. Span ids and parent
    links come back from the exported ["span_id"]/["parent"] args (spans
    lacking a ["span_id"] get fresh synthetic ids); integral numeric
    args parse as [Int], the rest as [Float]. Strict: every event needs
    string [ph]/[name] and numeric [pid]/[tid], a numeric [ts] unless it
    is ["M"] metadata (which is skipped), and a non-negative [dur] on
    ["X"] events. Truncated or malformed JSON, schema violations,
    unknown [ph]/[pid], and duplicate span ids are rejected with a
    positioned error — never a crash or a mis-linked tree. *)

val validate_chrome : string -> (int, string) result
(** {!events_of_chrome}'s verdict on a serialized trace: [Ok n] gives
    the number of non-metadata events. *)

type agg = { name : string; calls : int; total : float; self : float }

val span_summary : ?exclude_cat:string -> Obs.event list -> agg list
(** Per-name aggregation, sorted by total duration descending. Self time
    excludes child spans, which are reconstructed from parent links and
    time containment per (track, node) group. *)

val top_spans : ?k:int -> ?exclude_cat:string -> Obs.event list -> (string * float) list
(** The [k] span names with the largest total duration — the harness
    puts these in its CSV breakdown column. *)

val flame : ?max_lines:int -> Obs.event list -> string
(** Indented span tree per clock track and node, durations in seconds. *)

val summary : ?exclude_cat:string -> Obs.event list -> string
(** Table form of {!span_summary}. *)
