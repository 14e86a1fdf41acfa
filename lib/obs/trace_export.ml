(* Sinks for the collected trace: a Chrome trace_event JSON exporter
   (loadable in chrome://tracing and Perfetto) with its strict importer,
   and a text flame/summary renderer for the CLI. *)

let escape = Json.escape

(* The importer reads an integral number in this range back as an Int
   arg, everything else as a Float. *)
let int_valued x = Float.is_integer x && Float.abs x <= 2. ** 52.

let json_of_value = function
  | Obs.Str s -> Printf.sprintf "\"%s\"" (escape s)
  | Obs.Int i -> string_of_int i
  | Obs.Float f ->
    if Float.is_finite f then
      (* 9 significant digits; digits that read back as an integer are
         written the way the importer's Int comes back out, so export
         ∘ import is a fixed point. *)
      let s = Printf.sprintf "%.9g" f in
      let g = float_of_string s in
      if int_valued g then Printf.sprintf "%.0f" g else s
    else Printf.sprintf "\"%s\"" (Float.to_string f)
  | Obs.Bool b -> string_of_bool b

let args_json attrs =
  attrs
  |> List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (escape k) (json_of_value v))
  |> String.concat ","

(* --- Chrome trace_event export --- *)

let pid_of = function Obs.Wall -> 1 | Obs.Sim -> 2

let us t = t *. 1e6

let chrome_json events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let emit line =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf "\n";
    Buffer.add_string buf line
  in
  (* Process/thread naming metadata so Perfetto labels the two clock
     domains and per-node tracks. *)
  emit
    "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"wall clock\"}}";
  emit
    "{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"simulated clock\"}}";
  let tids = Hashtbl.create 8 in
  let note_tid track tid =
    let key = (pid_of track, tid) in
    if tid > 0 && not (Hashtbl.mem tids key) then begin
      Hashtbl.add tids key ();
      emit
        (Printf.sprintf
           "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"node %d\"}}"
           (fst key) tid tid)
    end
  in
  List.iter
    (fun ev ->
      match ev with
      | Obs.Span_ev s ->
        note_tid s.track s.tid;
        (* "span_id", not "id": serve-layer spans already carry a
           request-scoped "id" attr and the two must not collide. *)
        let args =
          args_json
            (s.attrs
            @ [ ("span_id", Obs.Int s.id) ]
            @ (if s.parent >= 0 then [ ("parent", Obs.Int s.parent) ] else []))
        in
        emit
          (Printf.sprintf
             "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\",\"cat\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}"
             (pid_of s.track) s.tid (escape s.name) (escape s.cat) (us s.t0)
             (us s.dur) args)
      | Obs.Instant_ev i ->
        note_tid i.track i.tid;
        emit
          (Printf.sprintf
             "{\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\",\"ts\":%.3f,\"args\":{%s}}"
             (pid_of i.track) i.tid (escape i.name) (us i.ts)
             (args_json i.attrs)))
    events;
  Buffer.add_string buf "\n]}";
  Buffer.contents buf

(* --- Chrome JSON import ---

   Inverse of [chrome_json], for analyzing exported dumps offline. The
   exporter stashes the span id and parent link in "args", so the
   original linked structure comes back exactly; traces produced by
   other tools (no "span_id" arg) get fresh synthetic ids. Strict by
   design, and the one reader of the format: the document is parsed
   once, every event must carry the trace_event essentials (string
   "ph"/"name", numeric "pid"/"tid", a numeric "ts" unless it is "M"
   metadata, and a non-negative "dur" on "X" events), and unknown
   phases or pids, truncated or malformed input and duplicate span ids
   are rejected with a positioned error rather than mis-linking spans. *)

(* Integral numeric args come back as Int so trace ids, attempts and
   counters keep their exported type. *)
let value_of = function
  | Json.JStr s -> Obs.Str s
  | Json.JBool b -> Obs.Bool b
  | Json.Num x -> if int_valued x then Obs.Int (int_of_float x) else Obs.Float x
  | Json.Null -> Obs.Str "null"
  | (Json.Arr _ | Json.Obj _) as j -> Obs.Str (Json.to_string j)

let events_of_chrome serialized =
  let ( let* ) = Result.bind in
  let* evs =
    match Json.parse serialized with
    | Error e -> Error ("trace is not valid JSON: " ^ e)
    | Ok (Json.Obj fields) -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Json.Arr evs) -> Ok evs
      | _ -> Error "missing traceEvents array")
    | Ok _ -> Error "top level is not an object"
  in
  let seen_ids = Hashtbl.create 64 in
  let synth = ref (-2) in
  (* [Ok None] for metadata, which carries no event. *)
  let event i ev =
    let fail msg = Error (Printf.sprintf "event %d: %s" i msg) in
    match ev with
    | Json.Obj f -> (
      let str k = Option.bind (List.assoc_opt k f) Json.to_str in
      let num k = Option.bind (List.assoc_opt k f) Json.to_num in
      match (str "ph", str "name", num "pid", num "tid") with
      | None, _, _, _ -> fail "missing ph"
      | _, None, _, _ -> fail "missing name"
      | _, _, None, _ | _, _, _, None -> fail "missing pid/tid"
      | Some "M", _, _, _ -> Ok None
      | Some ph, Some name, Some pid, Some tid -> (
        let* track =
          match pid with
          | 1. -> Ok Obs.Wall
          | 2. -> Ok Obs.Sim
          | p -> fail (Printf.sprintf "unknown pid %g" p)
        in
        let* ts =
          match num "ts" with Some ts -> Ok (ts /. 1e6) | None -> fail "missing ts"
        in
        let tid = int_of_float tid in
        let args =
          match List.assoc_opt "args" f with
          | Some (Json.Obj kvs) -> List.map (fun (k, v) -> (k, value_of v)) kvs
          | _ -> []
        in
        match ph with
        | "X" -> (
          match num "dur" with
          | Some dur when dur >= 0. ->
            let id =
              match List.assoc_opt "span_id" args with
              | Some (Obs.Int id) -> id
              | _ ->
                decr synth;
                !synth + 1
            in
            let parent =
              match List.assoc_opt "parent" args with
              | Some (Obs.Int p) -> p
              | _ -> -1
            in
            let attrs =
              List.filter (fun (k, _) -> k <> "span_id" && k <> "parent") args
            in
            if Hashtbl.mem seen_ids id then
              fail (Printf.sprintf "duplicate span id %d" id)
            else begin
              Hashtbl.add seen_ids id ();
              let cat = Option.value ~default:"span" (str "cat") in
              Ok
                (Some
                   (Obs.Span_ev
                      {
                        id;
                        parent;
                        name;
                        cat;
                        track;
                        tid;
                        t0 = ts;
                        dur = dur /. 1e6;
                        attrs;
                      }))
            end
          | _ -> fail "X event needs dur >= 0")
        | "i" -> Ok (Some (Obs.Instant_ev { name; track; tid; ts; attrs = args }))
        | ph -> fail (Printf.sprintf "unsupported ph %S" ph)))
    | _ -> fail "not an object"
  in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | ev :: rest ->
      let* e = event i ev in
      go (i + 1) (match e with Some e -> e :: acc | None -> acc) rest
  in
  go 0 [] evs

let validate_chrome serialized =
  Result.map List.length (events_of_chrome serialized)

(* --- tree reconstruction ---

   Wall spans carry parent ids; Sim spans are flat per (track, tid) and
   nest by time containment. One containment pass per track group covers
   both (parent links and containment agree for well-nested wall spans
   because children are recorded before parents but share the parent's
   window). *)

type node = {
  span : Obs.span;
  depth : int;
  mutable child_sum : float;
}

let spans_of events =
  List.filter_map (function Obs.Span_ev s -> Some s | _ -> None) events

let group_key s = (s.Obs.track, s.Obs.tid)

(* Returns nodes in (t0, -dur) order with depth and child-duration sums
   filled in, grouped per (track, tid). *)
let tree events =
  let spans = spans_of events in
  let keys =
    List.fold_left
      (fun acc s -> if List.mem (group_key s) acc then acc else acc @ [ group_key s ])
      [] spans
  in
  List.concat_map
    (fun key ->
      let group = List.filter (fun s -> group_key s = key) spans in
      let sorted =
        List.sort
          (fun a b ->
            match compare a.Obs.t0 b.Obs.t0 with
            | 0 -> (
              match compare b.Obs.dur a.Obs.dur with
              | 0 -> compare a.Obs.id b.Obs.id
              | c -> c)
            | c -> c)
          group
      in
      let eps = 1e-9 in
      let open_stack : node list ref = ref [] in
      let out = ref [] in
      List.iter
        (fun s ->
          let rec unwind () =
            match !open_stack with
            | top :: rest
              when top.span.Obs.t0 +. top.span.Obs.dur <= s.Obs.t0 +. eps ->
              open_stack := rest;
              unwind ()
            | _ -> ()
          in
          unwind ();
          let depth = List.length !open_stack in
          (match !open_stack with
          | parent :: _ -> parent.child_sum <- parent.child_sum +. s.Obs.dur
          | [] -> ());
          let node = { span = s; depth; child_sum = 0. } in
          out := node :: !out;
          open_stack := node :: !open_stack)
        sorted;
      List.rev !out)
    keys

(* --- aggregated summary --- *)

type agg = { name : string; calls : int; total : float; self : float }

let span_summary ?exclude_cat events =
  let keep s =
    match exclude_cat with None -> true | Some c -> s.Obs.cat <> c
  in
  let tbl : (string, int ref * float ref * float ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let order = ref [] in
  List.iter
    (fun node ->
      let s = node.span in
      if keep s then begin
        let calls, total, self =
          match Hashtbl.find_opt tbl s.Obs.name with
          | Some e -> e
          | None ->
            let e = (ref 0, ref 0., ref 0.) in
            Hashtbl.add tbl s.Obs.name e;
            order := s.Obs.name :: !order;
            e
        in
        incr calls;
        total := !total +. s.Obs.dur;
        self := !self +. Float.max 0. (s.Obs.dur -. node.child_sum)
      end)
    (tree events);
  !order
  |> List.rev_map (fun name ->
         let calls, total, self = Hashtbl.find tbl name in
         { name; calls = !calls; total = !total; self = !self })
  |> List.sort (fun a b -> compare b.total a.total)

let top_spans ?(k = 5) ?exclude_cat events =
  span_summary ?exclude_cat events
  |> List.filteri (fun i _ -> i < k)
  |> List.map (fun a -> (a.name, a.total))

(* --- text flame + summary renderer --- *)

let track_label = function Obs.Wall -> "wall clock" | Obs.Sim -> "simulated clock"

let flame ?(max_lines = 120) events =
  let buf = Buffer.create 1024 in
  let nodes = tree events in
  let last_key = ref None in
  let printed = ref 0 and skipped = ref 0 in
  List.iter
    (fun node ->
      let s = node.span in
      let key = group_key s in
      if !last_key <> Some key then begin
        last_key := Some key;
        Buffer.add_string buf
          (Printf.sprintf "-- %s%s --\n" (track_label s.Obs.track)
             (if s.Obs.tid > 0 then Printf.sprintf ", node %d" s.Obs.tid else ""))
      end;
      if !printed < max_lines then begin
        incr printed;
        let attrs =
          match s.Obs.attrs with
          | [] -> ""
          | l ->
            "  ["
            ^ String.concat ", "
                (List.map
                   (fun (k, v) -> k ^ "=" ^ Obs.string_of_value v)
                   l)
            ^ "]"
        in
        Buffer.add_string buf
          (Printf.sprintf "%s%-*s %10.6fs%s\n"
             (String.make (2 * node.depth) ' ')
             (max 1 (44 - (2 * node.depth)))
             s.Obs.name s.Obs.dur attrs)
      end
      else incr skipped)
    nodes;
  if !skipped > 0 then
    Buffer.add_string buf (Printf.sprintf "... (%d more spans)\n" !skipped);
  Buffer.contents buf

let summary ?exclude_cat events =
  let aggs = span_summary ?exclude_cat events in
  let grand = List.fold_left (fun acc a -> acc +. a.self) 0. aggs in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-44s %6s %12s %12s %6s\n" "span" "calls" "total_s"
       "self_s" "self%");
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "%-44s %6d %12.6f %12.6f %5.1f%%\n" a.name a.calls
           a.total a.self
           (if grand > 0. then 100. *. a.self /. grand else 0.)))
    aggs;
  Buffer.contents buf
