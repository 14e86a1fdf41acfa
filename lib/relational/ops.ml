type rel = { schema : Schema.t; rows : Value.t array Seq.t }

let of_list schema rows = { schema; rows = List.to_seq rows }
let to_list r = List.of_seq r.rows

let count r = Seq.fold_left (fun n _ -> n + 1) 0 r.rows

type keep = { key : string; test : int -> int -> bool }

(* The store-level key test: [keep.key] as a schema index, which must
   name an int column. *)
let store_keep schema =
  Option.map (fun { key; test } ->
      let i = Schema.index schema key in
      if Schema.ty schema i <> Value.TInt then
        invalid_arg ("Ops: key test on non-int column " ^ key);
      (i, test))

let scan_row_store ?keep rs names =
  let schema = Row_store.schema rs in
  {
    schema = Schema.project schema names;
    rows =
      Row_store.scan
        ?keep:(store_keep schema keep)
        rs
        (Array.of_list (List.map (Schema.index schema) names));
  }

let scan_col_store ?keep cs names =
  let schema = Col_store.schema cs in
  {
    schema = Schema.project schema names;
    rows = Col_store.to_seq ?keep:(store_keep schema keep) cs names;
  }

let rows_out = Gb_obs.Telemetry.counter ~help:"row" "relops_rows"

(* [gc] is the Profile snapshot taken when the loop first pulled; its
   delta rides the span as attributes only — fused loops can be
   abandoned mid-stream, so they never feed the gc_* counters (that is
   {!Gb_obs.Profile.with_}'s job, which is exception-safe). *)
let emit_op_span ~name ~t0 ~gc n =
  Gb_obs.Telemetry.add rows_out n;
  Gb_obs.Obs.Span.emit ~track:Gb_obs.Obs.Wall ~cat:"op"
    ~attrs:(("rows", Gb_obs.Obs.Int n) :: Gb_obs.Profile.delta_attrs gc)
    ~name ~t0
    ~t1:(Gb_obs.Obs.now ())
    ()

(* [?trace] fuses the operator's span into its own streaming loop: the
   row count and first-pull-to-exhaustion timing cost an int increment
   on top of the work the operator does anyway, instead of the extra
   Seq layer a generic [traced] wrap would add. *)
let filter ?trace e r =
  let pred = Expr.compile_pred r.schema e in
  match trace with
  | Some name when Gb_obs.Obs.enabled () ->
    let rows () =
      let t0 = Gb_obs.Obs.now () in
      let gc = Gb_obs.Profile.start () in
      let n = ref 0 in
      let rec next s () =
        match s () with
        | Seq.Nil ->
          emit_op_span ~name ~t0 ~gc !n;
          Seq.Nil
        | Seq.Cons (x, rest) ->
          if pred x then begin
            incr n;
            Seq.Cons (x, next rest)
          end
          else next rest ()
      in
      next r.rows ()
    in
    { r with rows }
  | _ -> { r with rows = Seq.filter pred r.rows }

let project ?trace names r =
  let idx = Array.of_list (List.map (Schema.index r.schema) names) in
  let schema = Schema.project r.schema names in
  let f row = Array.map (fun i -> row.(i)) idx in
  match trace with
  | Some name when Gb_obs.Obs.enabled () ->
    let rows () =
      let t0 = Gb_obs.Obs.now () in
      let gc = Gb_obs.Profile.start () in
      let n = ref 0 in
      let rec next s () =
        match s () with
        | Seq.Nil ->
          emit_op_span ~name ~t0 ~gc !n;
          Seq.Nil
        | Seq.Cons (x, rest) ->
          incr n;
          Seq.Cons (f x, next rest)
      in
      next r.rows ()
    in
    { schema; rows }
  | _ -> { schema; rows = Seq.map f r.rows }

let map_column name e r =
  let f = Expr.compile r.schema e in
  (* Evaluate on a sample row lazily is not possible; type the new column
     from the expression's shape: constants and comparisons are ints,
     otherwise fall back to float for arithmetic over float columns. *)
  let rec ty_of = function
    | Expr.Const v -> Value.type_of v
    | Expr.Col n -> Schema.ty r.schema (Schema.index r.schema n)
    | Expr.Cmp _ | Expr.And _ | Expr.Or _ | Expr.Not _ -> Value.TInt
    | Expr.Arith (_, a, b) -> (
      match (ty_of a, ty_of b) with
      | Value.TInt, Value.TInt -> Value.TInt
      | _ -> Value.TFloat)
  in
  {
    schema = Schema.concat r.schema (Schema.make [ (name, ty_of e) ]);
    rows = Seq.map (fun row -> Array.append row [| f row |]) r.rows;
  }

(* Right-side rows by key, each key's rows in arrival order. The
   polymorphic table hashes with [Hashtbl.hash] and equates with
   [compare a b = 0], so a [Value.t] key and the one-element list of it
   match the same rows: [Int 1] and [Float 1.] stay distinct, NaN
   matches NaN and -0. matches 0. *)
let index key rows =
  let table = Hashtbl.create 1024 in
  Seq.iter
    (fun row ->
      let k = key row in
      let existing = try Hashtbl.find table k with Not_found -> [] in
      Hashtbl.replace table k (row :: existing))
    rows;
  Hashtbl.filter_map_inplace (fun _ rows -> Some (List.rev rows)) table;
  table

module Int_table = Hashtbl.Make (Int)

let int_key row i =
  match row.(i) with
  | Value.Int k -> k
  | v -> invalid_arg ("Ops: int join key holds " ^ Value.to_string v)

(* Direct probe loop (cheaper than [Seq.concat_map] over per-match
   sub-sequences): [build ()] consumes the right input and returns the
   lookup each left row probes with. [?trace] adds an int increment per
   output row and a span at exhaustion; it costs nothing when tracing is
   disabled. *)
let probe_rows ?trace build left =
  fun () ->
  let tr =
    match trace with
    | Some name when Gb_obs.Obs.enabled () ->
      Some (name, Gb_obs.Obs.now (), Gb_obs.Profile.start ())
    | _ -> None
  in
  let probe = build () in
  let n = ref 0 in
  let rec outer l () =
    match l () with
    | Seq.Nil ->
      (match tr with
      | Some (name, t0, gc) -> emit_op_span ~name ~t0 ~gc !n
      | None -> ());
      Seq.Nil
    | Seq.Cons (lrow, lrest) -> (
      match probe lrow with
      | None -> outer lrest ()
      | Some matches -> inner lrow matches lrest ())
  and inner lrow ms lrest () =
    match ms with
    | [] -> outer lrest ()
    | rrow :: tl ->
      incr n;
      Seq.Cons (Array.append lrow rrow, inner lrow tl lrest)
  in
  outer left ()

let is_int schema name = Schema.ty schema (Schema.index schema name) = Value.TInt

let semi_join ?trace ~on:(lkey, rkey) ~probe right =
  let table = Int_table.create 1024 in
  let left = probe { key = lkey; test = (fun _ k -> Int_table.mem table k) } in
  if not (is_int left.schema lkey && is_int right.schema rkey) then
    invalid_arg "Ops.semi_join: keys must be int columns";
  let li = Schema.index left.schema lkey in
  let ri = Schema.index right.schema rkey in
  (* The table fills at the first pull, before the left input is read,
     so the key test sees every build key. *)
  let build () =
    Int_table.reset table;
    Seq.iter
      (fun row ->
        let k = int_key row ri in
        let existing = Option.value (Int_table.find_opt table k) ~default:[] in
        Int_table.replace table k (row :: existing))
      right.rows;
    Int_table.filter_map_inplace (fun _ rows -> Some (List.rev rows)) table;
    fun lrow -> Int_table.find_opt table (int_key lrow li)
  in
  {
    schema = Schema.concat left.schema right.schema;
    rows = probe_rows ?trace build left.rows;
  }

let hash_join ?trace ~on left right =
  match on with
  | [ (l, r) ] when is_int left.schema l && is_int right.schema r ->
    semi_join ?trace ~on:(l, r) ~probe:(fun _ -> left) right
  | _ ->
    let lidx = List.map (fun (l, _) -> Schema.index left.schema l) on in
    let ridx = List.map (fun (_, r) -> Schema.index right.schema r) on in
    (* A one-column join keys on the value itself: no list per probe. *)
    let build () =
      match (lidx, ridx) with
      | [ li ], [ ri ] ->
        let table = index (fun row -> row.(ri)) right.rows in
        fun lrow -> Hashtbl.find_opt table lrow.(li)
      | _ ->
        let key idx row = List.map (fun i -> row.(i)) idx in
        let table = index (key ridx) right.rows in
        fun lrow -> Hashtbl.find_opt table (key lidx lrow)
    in
    {
      schema = Schema.concat left.schema right.schema;
      rows = probe_rows ?trace build left.rows;
    }

type agg = Count | Sum of string | Avg of string | Min of string | Max of string

type acc = {
  mutable n : int;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
}

let aggregate ~group_by ~aggs r =
  let kidx = List.map (Schema.index r.schema) group_by in
  let agg_col = function
    | Count -> None
    | Sum c | Avg c | Min c | Max c -> Some (Schema.index r.schema c)
  in
  let specs = List.map (fun (name, a) -> (name, a, agg_col a)) aggs in
  let out_schema =
    Schema.make
      (List.map (fun k -> (k, Schema.ty r.schema (Schema.index r.schema k))) group_by
      @ List.map
          (fun (name, a, _) ->
            let ty = match a with Count -> Value.TInt | _ -> Value.TFloat in
            (name, ty))
          specs)
  in
  let rows () =
    let table = Hashtbl.create 256 in
    Seq.iter
      (fun row ->
        let k = List.map (fun i -> row.(i)) kidx in
        let accs =
          match Hashtbl.find_opt table k with
          | Some a -> a
          | None ->
            let a =
              List.map
                (fun _ -> { n = 0; sum = 0.; mn = infinity; mx = neg_infinity })
                specs
            in
            Hashtbl.add table k a;
            a
        in
        List.iter2
          (fun acc (_, _, col) ->
            acc.n <- acc.n + 1;
            match col with
            | None -> ()
            | Some i ->
              let v = Value.to_float row.(i) in
              acc.sum <- acc.sum +. v;
              if v < acc.mn then acc.mn <- v;
              if v > acc.mx then acc.mx <- v)
          accs specs)
      r.rows;
    let out = ref [] in
    Hashtbl.iter
      (fun k accs ->
        let agg_vals =
          List.map2
            (fun acc (_, a, _) ->
              match a with
              | Count -> Value.Int acc.n
              | Sum _ -> Value.Float acc.sum
              | Avg _ -> Value.Float (acc.sum /. float_of_int (max 1 acc.n))
              | Min _ -> Value.Float acc.mn
              | Max _ -> Value.Float acc.mx)
            accs specs
        in
        out := Array.of_list (k @ agg_vals) :: !out)
      table;
    List.to_seq !out ()
  in
  { schema = out_schema; rows }

let guard ?(interval = 4096) ?trace check r =
  match trace with
  | Some name when Gb_obs.Obs.enabled () ->
    (* Fused: the guard already touches every row, so the scan span's
       count and timing ride its loop instead of adding a layer. *)
    let rows () =
      let t0 = Gb_obs.Obs.now () in
      let gc = Gb_obs.Profile.start () in
      let n = ref 0 in
      let rec next s () =
        match s () with
        | Seq.Nil ->
          emit_op_span ~name ~t0 ~gc !n;
          Seq.Nil
        | Seq.Cons (row, rest) ->
          incr n;
          if !n mod interval = 0 then check ();
          Seq.Cons (row, next rest)
      in
      next r.rows ()
    in
    { r with rows }
  | _ ->
    let n = ref 0 in
    {
      r with
      rows =
        Seq.map
          (fun row ->
            incr n;
            if !n mod interval = 0 then check ();
            row)
          r.rows;
    }

let guard_scan ?(interval = 4096) ?trace check keep open_ =
  (* Counted where the scan asks, so a scan that skips most of its
     tuples, or all of them, still reaches [check]. *)
  let n = ref 0 and due = ref interval in
  let test run k =
    n := !n + run;
    if !n >= !due then begin
      due := ((!n / interval) + 1) * interval;
      check ()
    end;
    keep.test run k
  in
  let r = open_ { keep with test } in
  match trace with
  | Some name when Gb_obs.Obs.enabled () ->
    let rows () =
      let t0 = Gb_obs.Obs.now () in
      let gc = Gb_obs.Profile.start () in
      let n0 = !n in
      let rec next s () =
        match s () with
        | Seq.Nil ->
          emit_op_span ~name ~t0 ~gc (!n - n0);
          Seq.Nil
        | Seq.Cons (row, rest) -> Seq.Cons (row, next rest)
      in
      next r.rows ()
    in
    { r with rows }
  | _ -> r

(* Wrap a relation so that one full consumption emits a wall-clock span
   covering first pull to exhaustion, carrying the row count. Volcano
   operators are lazy, so construction time is meaningless; the span
   brackets the work the operator actually forced. Per-element cost when
   tracing is an int increment plus one extra Seq node — operators with
   a streaming loop of their own should prefer their fused [?trace]
   argument, which avoids the extra layer entirely. Disabled tracing
   returns the relation untouched. *)
let traced ?(cat = "op") ?(attrs = []) ~name r =
  if not (Gb_obs.Obs.enabled ()) then r
  else
    let rows () =
      let t0 = Gb_obs.Obs.now () in
      let gc = Gb_obs.Profile.start () in
      let n = ref 0 in
      let rec wrap s () =
        match s () with
        | Seq.Nil ->
          Gb_obs.Telemetry.add rows_out !n;
          Gb_obs.Obs.Span.emit ~track:Gb_obs.Obs.Wall ~cat
            ~attrs:
              (("rows", Gb_obs.Obs.Int !n)
              :: (Gb_obs.Profile.delta_attrs gc @ attrs))
            ~name ~t0 ~t1:(Gb_obs.Obs.now ()) ();
          Seq.Nil
        | Seq.Cons (x, rest) ->
          incr n;
          Seq.Cons (x, wrap rest)
      in
      wrap r.rows ()
    in
    { r with rows }

let overlap_out = Gb_obs.Telemetry.counter ~help:"pair" "relops_overlap_pairs"

(* Sort-merge interval sweep join: left and right each carry a half-open
   genomic interval as (start, length) columns.  Output rows are
   [lrow ++ rrow ++ [overlap_len]] for every pair sharing at least
   [min_overlap] bases, in ascending (left row index, right row index)
   order — so id-ordered inputs give the canonical Q6 ordering.

   The sweep is partitioned over OUTPUT ranges — fixed-grain chunks of
   the left side via [Pool.ranges], pool-size-independent — and chunk
   results are stitched in chunk order, so the output is bitwise
   identical at any domain count (the per-pair payload is integer-only,
   so even "identical" is exact, not just ULP-close). *)
let interval_join ?trace ?(min_overlap = 1) ~left_span:(llo, llen)
    ~right_span:(rlo, rlen) left right =
  let module Ranges = Gb_util.Ranges in
  let module Pool = Gb_par.Pool in
  let li_lo = Schema.index left.schema llo
  and li_len = Schema.index left.schema llen
  and ri_lo = Schema.index right.schema rlo
  and ri_len = Schema.index right.schema rlen in
  let out_schema =
    Schema.concat
      (Schema.concat left.schema right.schema)
      (Schema.make [ ("overlap_len", Value.TInt) ])
  in
  let rows () =
    let tr =
      match trace with
      | Some name when Gb_obs.Obs.enabled () ->
        Some (name, Gb_obs.Obs.now (), Gb_obs.Profile.start ())
      | _ -> None
    in
    let larr = Array.of_seq left.rows and rarr = Array.of_seq right.rows in
    let iv_of arr ilo ilen i =
      let row = arr.(i) in
      Ranges.of_start_len ~id:i
        ~start:(Value.to_int row.(ilo))
        ~len:(Value.to_int row.(ilen))
    in
    let livs = Array.init (Array.length larr) (iv_of larr li_lo li_len) in
    let rivs = Array.init (Array.length rarr) (iv_of rarr ri_lo ri_len) in
    let chunks = Pool.ranges ~grain:2048 ~lo:0 ~hi:(Array.length larr) in
    let outs =
      Pool.map_list
        (fun (a, b) ->
          Ranges.sweep_join ~min_overlap (Array.sub livs a (b - a)) rivs
          |> List.map (fun (li, ri, len) ->
                 Array.append
                   (Array.append larr.(li) rarr.(ri))
                   [| Value.Int len |]))
        chunks
    in
    let out = List.concat outs in
    Gb_obs.Telemetry.add overlap_out (List.length out);
    (match tr with
    | Some (name, t0, gc) -> emit_op_span ~name ~t0 ~gc (List.length out)
    | None -> ());
    List.to_seq out ()
  in
  { schema = out_schema; rows }
