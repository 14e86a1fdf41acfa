type t =
  | Scan of string * string list
  | Filter of Expr.t * t
  | Project of string list * t
  | Join of { left : t; right : t; on : (string * string) list }
  | Interval_join of {
      left : t;
      right : t;
      left_span : string * string;
      right_span : string * string;
      min_overlap : int;
    }

type catalog = {
  scan : ?keep:Ops.keep -> string -> string list -> Ops.rel;
  schema_of : string -> Schema.t;
  row_count : string -> int;
}

let rec schema cat = function
  | Scan (table, []) -> cat.schema_of table
  | Scan (table, cols) -> Schema.project (cat.schema_of table) cols
  | Filter (_, p) -> schema cat p
  | Project (cols, p) -> Schema.project (schema cat p) cols
  | Join { left; right; _ } ->
    Schema.concat (schema cat left) (schema cat right)
  | Interval_join { left; right; _ } ->
    Schema.concat
      (Schema.concat (schema cat left) (schema cat right))
      (Schema.make [ ("overlap_len", Value.TInt) ])

let rec estimate_rows cat = function
  | Scan (table, _) -> cat.row_count table
  | Filter (_, p) -> max 1 (estimate_rows cat p / 3)
  | Project (_, p) -> estimate_rows cat p
  | Join { left; right; _ } ->
    (* Equi-join on a key of the smaller side: about the larger input. *)
    max (min (estimate_rows cat left) (estimate_rows cat right))
      (max (estimate_rows cat left) (estimate_rows cat right) / 2)
  | Interval_join { left; right; _ } ->
    (* Interval containment over a shared axis: expect a handful of
       matches per left interval, more when the right side is dense. *)
    max 1 (max (estimate_rows cat left) (estimate_rows cat right) * 3 / 2)

let names cat p = List.map fst (Schema.columns (schema cat p))

(* Which side does a joined-output column come from? Mirrors
   Schema.concat's renaming: the first |left| columns are left's, the rest
   are right's columns under possibly-fresh names. *)
let split_required cat left right required =
  let ls = schema cat left and rs = schema cat right in
  let joined = Schema.concat ls rs in
  let la = Schema.arity ls in
  List.fold_left
    (fun (lreq, rreq) name ->
      match Schema.index joined name with
      | idx when idx < la -> (name :: lreq, rreq)
      | idx -> (lreq, Schema.name rs (idx - la) :: rreq)
      | exception Not_found -> (lreq, rreq))
    ([], [])
    required

(* Rewrite an expression's column references from joined-output names to
   the right input's original names; returns None if any column is not a
   pure right-side reference. *)
let rebase_to_right cat left right e =
  let ls = schema cat left and rs = schema cat right in
  let joined = Schema.concat ls rs in
  let la = Schema.arity ls in
  let rec go = function
    | Expr.Col name -> (
      match Schema.index joined name with
      | idx when idx >= la -> Some (Expr.Col (Schema.name rs (idx - la)))
      | _ -> None
      | exception Not_found -> None)
    | Expr.Const _ as c -> Some c
    | Expr.Cmp (op, a, b) ->
      Option.bind (go a) (fun a -> Option.map (fun b -> Expr.Cmp (op, a, b)) (go b))
    | Expr.And (a, b) ->
      Option.bind (go a) (fun a -> Option.map (fun b -> Expr.And (a, b)) (go b))
    | Expr.Or (a, b) ->
      Option.bind (go a) (fun a -> Option.map (fun b -> Expr.Or (a, b)) (go b))
    | Expr.Not a -> Option.map (fun a -> Expr.Not a) (go a)
    | Expr.Arith (op, a, b) ->
      Option.bind (go a) (fun a ->
          Option.map (fun b -> Expr.Arith (op, a, b)) (go b))
  in
  go e

let conjuncts e =
  let rec go acc = function
    | Expr.And (a, b) -> go (go acc a) b
    | e -> e :: acc
  in
  List.rev (go [] e)

let conjoin = function
  | [] -> None
  | e :: rest -> Some (List.fold_left (fun acc c -> Expr.And (acc, c)) e rest)

(* --- predicate pushdown --- *)

let rec pushdown cat plan =
  match plan with
  | Filter (e, Filter (e2, p)) -> pushdown cat (Filter (Expr.And (e2, e), p))
  | Filter (e, Project (cols, p)) ->
    (* Projection only narrows columns; if the predicate survives on the
       narrowed schema it also evaluates below it. *)
    let below = names cat p in
    if List.for_all (fun c -> List.mem c below) (Expr.columns e) then
      Project (cols, pushdown cat (Filter (e, p)))
    else Project (cols, pushdown cat p) |> fun inner -> Filter (e, inner)
  | Filter
      (e, ((Join { left; right; _ } | Interval_join { left; right; _ }) as join))
    ->
    (* Each conjunct goes below the join to the side that defines all its
       columns; the rest (an interval join's computed [overlap_len]
       included) stays above it. *)
    let lnames = names cat left in
    let stays = ref [] and to_left = ref [] and to_right = ref [] in
    List.iter
      (fun c ->
        let cols = Expr.columns c in
        if List.for_all (fun n -> List.mem n lnames) cols then
          to_left := c :: !to_left
        else
          match rebase_to_right cat left right c with
          | Some c' -> to_right := c' :: !to_right
          | None -> stays := c :: !stays)
      (conjuncts e);
    let with_filter cs p =
      match conjoin (List.rev cs) with Some f -> Filter (f, p) | None -> p
    in
    let left = pushdown cat (with_filter !to_left left)
    and right = pushdown cat (with_filter !to_right right) in
    let joined =
      match join with
      | Interval_join ij -> Interval_join { ij with left; right }
      | Join j -> Join { j with left; right }
      | _ -> assert false
    in
    with_filter !stays joined
  | Filter (e, p) -> Filter (e, pushdown cat p)
  | Project (cols, p) -> Project (cols, pushdown cat p)
  | Join { left; right; on } ->
    Join { left = pushdown cat left; right = pushdown cat right; on }
  | Interval_join ij ->
    Interval_join
      { ij with left = pushdown cat ij.left; right = pushdown cat ij.right }
  | Scan _ as s -> s

(* --- column pruning --- *)

let union a b = List.fold_left (fun acc x -> if List.mem x acc then acc else acc @ [ x ]) a b

let rec prune cat required plan =
  match plan with
  | Scan (table, _) ->
    let all = List.map fst (Schema.columns (cat.schema_of table)) in
    let wanted = List.filter (fun c -> List.mem c required) all in
    Scan (table, (if wanted = [] then all else wanted))
  | Filter (e, p) -> Filter (e, prune cat (union required (Expr.columns e)) p)
  | Project (cols, p) -> Project (cols, prune cat cols p)
  | Join { left; right; on } ->
    let lreq, rreq = split_required cat left right required in
    let lreq = union lreq (List.map fst on) in
    let rreq = union rreq (List.map snd on) in
    Join { left = prune cat lreq left; right = prune cat rreq right; on }
  | Interval_join ({ left; right; left_span; right_span; _ } as ij) ->
    let lreq, rreq = split_required cat left right required in
    let lreq = union lreq [ fst left_span; snd left_span ] in
    let rreq = union rreq [ fst right_span; snd right_span ] in
    Interval_join
      { ij with left = prune cat lreq left; right = prune cat rreq right }

(* --- build-side selection --- *)

let rec choose_builds cat plan =
  match plan with
  | Join { left; right; on } ->
    let left = choose_builds cat left and right = choose_builds cat right in
    (* Ops.hash_join builds on the right input; make the smaller side the
       build side, restoring the original column order with a projection
       when the swap is rename-safe. *)
    if estimate_rows cat left < estimate_rows cat right then begin
      let original = names cat (Join { left; right; on }) in
      let swapped =
        Join { left = right; right = left; on = List.map (fun (a, b) -> (b, a)) on }
      in
      let snames = names cat swapped in
      if List.for_all (fun n -> List.mem n snames) original then
        Project (original, swapped)
      else Join { left; right; on }
    end
    else Join { left; right; on }
  | Interval_join ij ->
    (* The sweep is symmetric in cost but not in output order; sides are
       never swapped so the canonical (left, right) ordering holds. *)
    Interval_join
      {
        ij with
        left = choose_builds cat ij.left;
        right = choose_builds cat ij.right;
      }
  | Filter (e, p) -> Filter (e, choose_builds cat p)
  | Project (cols, p) -> Project (cols, choose_builds cat p)
  | Scan _ as s -> s

(* Run each rewrite separately and record which ones changed the plan —
   the plan ADT is pure data, so structural inequality is exactly "the
   rewrite fired". EXPLAIN prints the list so a reader can tell an
   already-optimal plan from one the optimizer reshaped. *)
let optimize_steps cat plan =
  let p1 = pushdown cat plan in
  let top = names cat p1 in
  let p2 = prune cat top p1 in
  let p3 = choose_builds cat p2 in
  let fired =
    List.filter_map
      (fun (name, changed) -> if changed then Some name else None)
      [
        ("predicate pushdown", p1 <> plan);
        ("column pruning", p2 <> p1);
        ("join build-side swap", p3 <> p2);
      ]
  in
  (p3, fired)

let optimize cat plan = fst (optimize_steps cat plan)

(* A join [run] executes as a semi-join: its probe side is a bare scan
   and both keys are int columns. *)
let semi_join_scan cat = function
  | Join { left = Scan (table, cols) as scan; right; on = [ (l, r) ] } ->
    let is_int p name =
      let s = schema cat p in
      Schema.ty s (Schema.index s name) = Value.TInt
    in
    if is_int scan l && is_int right r then Some (table, cols, (l, r))
    else None
  | _ -> None

let scan_all cat ?keep table = function
  | [] -> cat.scan ?keep table (List.map fst (Schema.columns (cat.schema_of table)))
  | cols -> cat.scan ?keep table cols

(* The one plan interpreter. Each node's output passes through [out]
   (children before their parent): {!execute} passes it on unchanged,
   EXPLAIN ANALYZE splices in a row counter. Filter, project and the
   joins fuse a tracing span into their own loop via [?trace], so an
   enabled trace shows one span per operator bracketing the work it
   forced (lazy pulls nest the spans by time containment). Scan spans
   are the catalog's job — its [scan] should fuse one via
   [Ops.guard ~trace] or [Ops.guard_scan ~trace] or wrap with
   [Ops.traced] — so hot scans need not pay for an extra per-row layer
   here. With tracing disabled every tracing hook is the identity.

   A join whose probe side is a bare scan on an int key runs as a
   semi-join: the build side is read first, then the scan opens with a
   test of the build keys and skips the tuples that join nothing before
   decoding them, the way a hash join deforms only the probe key. *)
let rec run ~out cat p =
  let sub = run ~out cat in
  out p
    (match p with
    | Scan (table, cols) -> scan_all cat table cols
    | Filter (e, q) -> Ops.filter ~trace:"filter" e (sub q)
    | Project (cols, q) -> Ops.project ~trace:"project" cols (sub q)
    | Join { left; right; on } -> (
      match semi_join_scan cat p with
      | Some (table, cols, on) ->
        Ops.semi_join ~trace:"hash_join" ~on
          ~probe:(fun keep -> out left (scan_all cat ~keep table cols))
          (sub right)
      | None -> Ops.hash_join ~trace:"hash_join" ~on (sub left) (sub right))
    | Interval_join { left; right; left_span; right_span; min_overlap } ->
      Ops.interval_join ~trace:"interval_join" ~min_overlap ~left_span
        ~right_span (sub left) (sub right))

let execute ?(optimize_first = true) cat plan =
  let plan = if optimize_first then optimize cat plan else plan in
  run ~out:(fun _ rel -> rel) cat plan

let describe ?semi_join_on = function
  | Scan (t, cols) -> (
    Printf.sprintf "Scan %s [%s]" t (String.concat ", " cols)
    ^ match semi_join_on with Some key -> ", semi-join on " ^ key | None -> "")
  | Filter (e, _) ->
    Printf.sprintf "Filter on [%s]" (String.concat ", " (Expr.columns e))
  | Project (cols, _) -> Printf.sprintf "Project [%s]" (String.concat ", " cols)
  | Join { on; _ } ->
    Printf.sprintf "HashJoin on [%s]"
      (String.concat ", " (List.map (fun (a, b) -> a ^ "=" ^ b) on))
  | Interval_join { left_span = ll, lv; right_span = rl, rv; min_overlap; _ }
    ->
    Printf.sprintf "IntervalJoin [%s+%s overlaps %s+%s, >=%dbp]" ll lv rl rv
      min_overlap

let children = function
  | Scan _ -> []
  | Filter (_, p) | Project (_, p) -> [ p ]
  | Join { left; right; _ } | Interval_join { left; right; _ } ->
    [ left; right ]

let optimizer_note fired =
  match fired with
  | [] -> "-- optimizer: plan unchanged\n"
  | l -> Printf.sprintf "-- optimizer: %s\n" (String.concat ", " l)

(* Renders [plan]'s tree, one [line indent description node] per node,
   marking the probe scan of each semi-join with its key. *)
let render cat plan line =
  let rec go indent ?semi_join_on p =
    line indent (describe ?semi_join_on p) p;
    match (semi_join_scan cat p, children p) with
    | Some (_, _, (key, _)), [ left; right ] ->
      go (indent + 2) ~semi_join_on:key left;
      go (indent + 2) right
    | _, kids -> List.iter (go (indent + 2)) kids
  in
  go 0 plan

let explain cat plan =
  let plan, fired = optimize_steps cat plan in
  let buf = Buffer.create 256 in
  render cat plan (fun indent text p ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s  (~%d rows)\n" (String.make indent ' ') text
           (estimate_rows cat p)));
  Buffer.add_string buf (optimizer_note fired);
  Buffer.contents buf

(* --- EXPLAIN ANALYZE ---

   Run the optimized plan with a row counter on every node's output,
   drain it, then print the same tree with estimated vs actual
   cardinalities. Join nodes additionally report the hash table's build
   and probe sizes, which are exactly the right and left child's actual
   counts: the build phase consumes the right input through its counter
   before the first output row, and every probed row passes the left
   counter. The optimizer rebuilds every node, so each node of its
   output is a distinct value and keys its own counter. The counting
   layer is one closure per row per node — fine for a diagnostic run,
   which is not a timed benchmark. *)

let explain_analyze cat plan =
  let plan, fired = optimize_steps cat plan in
  let counters = ref [] in
  let count node rel =
    let c = ref 0 in
    counters := (node, c) :: !counters;
    {
      rel with
      Ops.rows =
        Seq.map
          (fun row ->
            incr c;
            row)
          rel.Ops.rows;
    }
  in
  Seq.iter ignore (run ~out:count cat plan).Ops.rows;
  let actual node = !(List.assq node !counters) in
  let buf = Buffer.create 256 in
  render cat plan (fun indent text p ->
    let extra =
      match p with
      | Join { left; right; _ } ->
        Printf.sprintf "; build %d, probe %d" (actual right) (actual left)
      | Interval_join { left; right; _ } ->
        (* The node's own est|actual above IS the overlap-pair count;
           this footnote sizes the sweep's two interval inputs. *)
        Printf.sprintf "; swept %d x %d intervals" (actual left) (actual right)
      | _ -> ""
    in
    Buffer.add_string buf
      (Printf.sprintf "%s%s  (est %d | actual %d rows%s)\n"
         (String.make indent ' ')
         text (estimate_rows cat p) (actual p) extra));
  Buffer.add_string buf (optimizer_note fired);
  Buffer.contents buf
