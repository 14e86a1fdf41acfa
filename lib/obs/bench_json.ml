(* Structured bench output and the noise-aware regression diff.

   Every bench section emits one BENCH_<section>.json file: a schema-
   versioned header (section, git rev, quick flag) plus one record per
   measured configuration. Records carry the sample statistics the diff
   needs (median is the comparison statistic; mean/p95/min/max are for
   humans) and any counters captured alongside (gc_* deltas, row counts,
   phase seconds). [diff] compares two files key-by-key with a relative
   threshold AND a unit-aware absolute floor, so sub-millisecond jitter
   on a fast benchmark never trips the gate and a real 2x slowdown
   always does. *)

let schema_version = 1

type better = Lower | Higher

type record = {
  name : string;
  engine : string;
  query : string;
  size : string;
  unit_ : string;
  better : better;
  iterations : int;
  mean : float;
  median : float;
  p95 : float;
  min_v : float;
  max_v : float;
  counters : (string * float) list;
}

type file = {
  section : string;
  git_rev : string;
  quick : bool;
  records : record list;
}

(* --- record construction from raw samples --- *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let rank = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let make ~name ?(engine = "") ?(query = "") ?(size = "") ?(unit_ = "s")
    ?(better = Lower) ?(counters = []) samples =
  (* Failed cells report infinite totals; those carry no magnitude to
     compare, so drop them here rather than poisoning the statistics. *)
  let finite = List.filter Float.is_finite samples in
  match finite with
  | [] -> None
  | _ ->
    let sorted = Array.of_list finite in
    Array.sort compare sorted;
    let n = Array.length sorted in
    let sum = Array.fold_left ( +. ) 0. sorted in
    let counters = List.filter (fun (_, v) -> Float.is_finite v) counters in
    Some
      {
        name;
        engine;
        query;
        size;
        unit_;
        better;
        iterations = n;
        mean = sum /. float_of_int n;
        median = percentile sorted 0.5;
        p95 = percentile sorted 0.95;
        min_v = sorted.(0);
        max_v = sorted.(n - 1);
        counters;
      }

(* --- git revision discovery ---

   No subprocess: read .git/HEAD, follow one "ref:" indirection into the
   loose ref or packed-refs. GENBASE_GIT_REV overrides (CI detached
   checkouts), "unknown" when nothing resolves. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let packed_ref git_dir ref_name =
  let lines = String.split_on_char '\n' (read_file (Filename.concat git_dir "packed-refs")) in
  List.find_map
    (fun line ->
      match String.index_opt line ' ' with
      | Some i when String.sub line (i + 1) (String.length line - i - 1) = ref_name ->
        Some (String.sub line 0 i)
      | _ -> None)
    lines

let rec find_git_dir dir depth =
  if depth > 8 then None
  else
    let cand = Filename.concat dir ".git" in
    if Sys.file_exists cand && Sys.is_directory cand then Some cand
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find_git_dir parent (depth + 1)

let git_rev () =
  match Sys.getenv_opt "GENBASE_GIT_REV" with
  | Some r when r <> "" -> r
  | _ -> (
    try
      match find_git_dir (Sys.getcwd ()) 0 with
      | None -> "unknown"
      | Some git_dir -> (
        let head = String.trim (read_file (Filename.concat git_dir "HEAD")) in
        match String.length head with
        | n when n > 5 && String.sub head 0 5 = "ref: " -> (
          let ref_name = String.trim (String.sub head 5 (n - 5)) in
          match
            (try Some (String.trim (read_file (Filename.concat git_dir ref_name)))
             with _ -> None)
          with
          | Some sha when sha <> "" -> sha
          | _ -> (
            match (try packed_ref git_dir ref_name with _ -> None) with
            | Some sha -> sha
            | None -> "unknown"))
        | _ -> if head = "" then "unknown" else head)
    with _ -> "unknown")

(* --- JSON serialization --- *)

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let better_of_string = function
  | "higher" -> Higher
  | _ -> Lower

let record_to_json r =
  Json.Obj
    ([
       ("name", Json.JStr r.name);
       ("engine", Json.JStr r.engine);
       ("query", Json.JStr r.query);
       ("size", Json.JStr r.size);
       ("unit", Json.JStr r.unit_);
       ("better", Json.JStr (better_to_string r.better));
       ("iterations", Json.Num (float_of_int r.iterations));
       ("mean", Json.Num r.mean);
       ("median", Json.Num r.median);
       ("p95", Json.Num r.p95);
       ("min", Json.Num r.min_v);
       ("max", Json.Num r.max_v);
     ]
    @
    match r.counters with
    | [] -> []
    | cs -> [ ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) cs)) ])

(* One record per line inside the records array: committed baselines
   should produce readable git diffs when a single entry moves. *)
let to_string f =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"genbase_bench\":%d,\"section\":\"%s\",\"git_rev\":\"%s\",\"quick\":%b,\"records\":["
       schema_version (Json.escape f.section) (Json.escape f.git_rev) f.quick);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Json.to_string (record_to_json r)))
    f.records;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let ( let* ) = Result.bind

let field name fields =
  match List.assoc_opt name fields with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let str_field name fields =
  let* v = field name fields in
  match v with
  | Json.JStr s -> Ok s
  | _ -> Error (Printf.sprintf "field %S: expected string" name)

let num_field name fields =
  let* v = field name fields in
  match v with
  | Json.Num x -> Ok x
  | Json.Null -> Ok nan (* non-finite values serialize as null *)
  | _ -> Error (Printf.sprintf "field %S: expected number" name)

let record_of_json = function
  | Json.Obj fields ->
    let* name = str_field "name" fields in
    let* engine = str_field "engine" fields in
    let* query = str_field "query" fields in
    let* size = str_field "size" fields in
    let* unit_ = str_field "unit" fields in
    let* better_s = str_field "better" fields in
    let* iterations = num_field "iterations" fields in
    let* mean = num_field "mean" fields in
    let* median = num_field "median" fields in
    let* p95 = num_field "p95" fields in
    let* min_v = num_field "min" fields in
    let* max_v = num_field "max" fields in
    let* counters =
      match List.assoc_opt "counters" fields with
      | None -> Ok []
      | Some (Json.Obj cs) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            match v with
            | Json.Num x -> Ok ((k, x) :: acc)
            | _ -> Error (Printf.sprintf "counter %S: expected number" k))
          (Ok []) cs
        |> Result.map List.rev
      | Some _ -> Error "field \"counters\": expected object"
    in
    Ok
      {
        name;
        engine;
        query;
        size;
        unit_;
        better = better_of_string better_s;
        iterations = int_of_float iterations;
        mean;
        median;
        p95;
        min_v;
        max_v;
        counters;
      }
  | _ -> Error "record: expected object"

let of_string s =
  let* j = Json.parse s in
  match j with
  | Json.Obj fields ->
    let* v = num_field "genbase_bench" fields in
    if int_of_float v <> schema_version then
      Error
        (Printf.sprintf "unsupported schema version %d (expected %d)"
           (int_of_float v) schema_version)
    else
      let* section = str_field "section" fields in
      let* git_rev = str_field "git_rev" fields in
      let* quick =
        let* q = field "quick" fields in
        match q with
        | Json.JBool b -> Ok b
        | _ -> Error "field \"quick\": expected bool"
      in
      let* recs = field "records" fields in
      let* records =
        match recs with
        | Json.Arr items ->
          List.fold_left
            (fun acc item ->
              let* acc = acc in
              let* r = record_of_json item in
              Ok (r :: acc))
            (Ok []) items
          |> Result.map List.rev
        | _ -> Error "field \"records\": expected array"
      in
      Ok { section; git_rev; quick; records }
  | _ -> Error "top level is not an object"

let path_of_section section = Printf.sprintf "BENCH_%s.json" section

let write ?dir ~section ~quick records =
  let f = { section; git_rev = git_rev (); quick; records } in
  let path =
    match dir with
    | None -> path_of_section section
    | Some d -> Filename.concat d (path_of_section section)
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string f));
  path

let read path =
  match (try Ok (read_file path) with Sys_error e -> Error e) with
  | Error e -> Error e
  | Ok s -> (
    match of_string s with
    | Ok f -> Ok f
    | Error e -> Error (Printf.sprintf "%s: %s" path e))

(* --- the diff --- *)

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

(* The absolute floor under which a relative change is noise regardless
   of percentage: timers and the allocator make the first few hundred
   nanoseconds / few milliseconds of any measurement jitter. *)
let default_min_effect unit_ =
  match unit_ with
  | "s" -> 0.005
  | "ms" -> 5.
  | "ns" -> 500.
  | "pct" | "%" -> 1.0
  | _ -> 0.

let key r = (r.name, r.engine, r.query, r.size, r.unit_)

let diff ?(threshold_pct = 20.) ?(min_effect = default_min_effect) base cand =
  let comparisons =
    List.filter_map
      (fun cr ->
        match List.find_opt (fun br -> key br = key cr) base.records with
        | None -> None
        | Some br ->
          if not (Float.is_finite br.median && Float.is_finite cr.median) then
            None
          else
            let change = cr.median -. br.median in
            let change_pct =
              if br.median <> 0. then 100. *. change /. Float.abs br.median
              else if change = 0. then 0.
              else Float.infinity *. (if change > 0. then 1. else -1.)
            in
            (* "worse" in the record's own direction: for Lower-is-better
               a positive change is worse; for Higher-is-better the sign
               flips. *)
            let worse =
              match cr.better with Lower -> change | Higher -> -.change
            in
            let significant =
              Float.abs change > min_effect cr.unit_
              && Float.abs change_pct > threshold_pct
            in
            let verdict =
              if not significant then Within_noise
              else if worse > 0. then Regression
              else Improvement
            in
            Some
              {
                c_record = cr;
                base_median = br.median;
                cand_median = cr.median;
                change_pct;
                verdict;
              })
      cand.records
  in
  let only_base =
    List.filter
      (fun br -> not (List.exists (fun cr -> key cr = key br) cand.records))
      base.records
  in
  let only_cand =
    List.filter
      (fun cr -> not (List.exists (fun br -> key br = key cr) base.records))
      cand.records
  in
  { threshold_pct; comparisons; only_base; only_cand }

let regressions report =
  List.filter (fun c -> c.verdict = Regression) report.comparisons

let improvements report =
  List.filter (fun c -> c.verdict = Improvement) report.comparisons

let fmt_value unit_ v =
  if not (Float.is_finite v) then "INF"
  else
    match unit_ with
    | "s" -> Printf.sprintf "%.6g" v
    | "ns" -> Printf.sprintf "%.4g" v
    | _ -> Printf.sprintf "%.6g" v

let render_report report =
  let buf = Buffer.create 1024 in
  let label r =
    String.concat "/"
      (List.filter (fun s -> s <> "") [ r.name; r.engine; r.query; r.size ])
  in
  let rows =
    List.map
      (fun c ->
        let r = c.c_record in
        [
          label r;
          c.c_record.unit_;
          fmt_value r.unit_ c.base_median;
          fmt_value r.unit_ c.cand_median;
          (if Float.is_finite c.change_pct then
             Printf.sprintf "%+.1f%%" c.change_pct
           else "n/a");
          (match c.verdict with
          | Regression -> "REGRESSION"
          | Improvement -> "improvement"
          | Within_noise -> "ok");
        ])
      report.comparisons
  in
  if rows <> [] then begin
    Buffer.add_string buf
      (Gb_util.Render.table
         ~headers:[ "benchmark"; "unit"; "base"; "new"; "change"; "verdict" ]
         ~rows);
    Buffer.add_char buf '\n'
  end;
  let names rs = String.concat ", " (List.map label rs) in
  if report.only_base <> [] then
    Buffer.add_string buf
      (Printf.sprintf "only in base (removed?): %s\n" (names report.only_base));
  if report.only_cand <> [] then
    Buffer.add_string buf
      (Printf.sprintf "only in candidate (added): %s\n" (names report.only_cand));
  let n_reg = List.length (regressions report) in
  let n_imp = List.length (improvements report) in
  Buffer.add_string buf
    (Printf.sprintf
       "%d compared, %d regression%s, %d improvement%s (threshold %.0f%% + unit floor)\n"
       (List.length report.comparisons)
       n_reg
       (if n_reg = 1 then "" else "s")
       n_imp
       (if n_imp = 1 then "" else "s")
       report.threshold_pct);
  Buffer.contents buf
