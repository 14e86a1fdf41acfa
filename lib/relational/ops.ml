type rel = { schema : Schema.t; rows : Value.t array Seq.t }

let of_list schema rows = { schema; rows = List.to_seq rows }
let to_list r = List.of_seq r.rows

let count r = Seq.fold_left (fun n _ -> n + 1) 0 r.rows

let scan_row_store rs =
  { schema = Row_store.schema rs; rows = Row_store.to_seq rs }

let scan_col_store cs names =
  {
    schema = Schema.project (Col_store.schema cs) names;
    rows = Col_store.to_seq cs names;
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

(* Partitioned parallel build+probe, used when the Domain pool has more
   than one lane. The output row sequence is byte-identical to the
   sequential loop's:

   - the build side is split into fixed-grain chunks, each chunk scatters
     its rows into per-partition lists (partition = generic hash of the
     join key), and the per-chunk lists are stitched in chunk order — so
     every partition sees its rows in original right-side order;
   - each partition's hash table is then built exactly as the sequential
     build would over that row subset ([replace k (row :: existing)], so
     matches come back in right order after the [List.rev]);
   - probe chunks each emit their output rows in left order, and chunk
     outputs concatenate in order.

   All rows with equal keys share a partition, so per-left-row match
   lists — and hence the whole output — match the sequential join. The
   price is materialization at first pull; the 1-lane path below keeps
   the original fully streaming loop. *)
let hash_join_par ~lanes ~lkey ~rkey left_rows right_rows =
  let module Pool = Gb_par.Pool in
  let rarr = Array.of_seq right_rows in
  let larr = Array.of_seq left_rows in
  let rec pow2 n = if n >= 4 * lanes || n >= 64 then n else pow2 (2 * n) in
  let nparts = pow2 8 in
  let part_of k = Hashtbl.hash k land (nparts - 1) in
  let grain = 8192 in
  let chunk_ranges = Pool.ranges ~grain ~lo:0 ~hi:(Array.length rarr) in
  let scattered =
    Pool.map_list
      (fun (a, b) ->
        let buckets = Array.make nparts [] in
        for i = b - 1 downto a do
          let row = rarr.(i) in
          let p = part_of (rkey row) in
          buckets.(p) <- row :: buckets.(p)
        done;
        buckets)
      chunk_ranges
  in
  let tables =
    Pool.map_array
      (fun p ->
        let table = Hashtbl.create 1024 in
        List.iter
          (fun buckets ->
            List.iter
              (fun row ->
                let k = rkey row in
                let existing = try Hashtbl.find table k with Not_found -> [] in
                Hashtbl.replace table k (row :: existing))
              buckets.(p))
          scattered;
        table)
      (Array.init nparts Fun.id)
  in
  let probe_ranges = Pool.ranges ~grain ~lo:0 ~hi:(Array.length larr) in
  let outs =
    Pool.map_list
      (fun (a, b) ->
        let acc = ref [] in
        for i = a to b - 1 do
          let lrow = larr.(i) in
          let k = lkey lrow in
          match Hashtbl.find_opt tables.(part_of k) k with
          | None -> ()
          | Some matches ->
            List.iter
              (fun rrow -> acc := Array.append lrow rrow :: !acc)
              (List.rev matches)
        done;
        List.rev !acc)
      probe_ranges
  in
  List.concat outs

let hash_join ?trace ~on left right =
  let lidx = List.map (fun (l, _) -> Schema.index left.schema l) on in
  let ridx = List.map (fun (_, r) -> Schema.index right.schema r) on in
  let key idx row = List.map (fun i -> row.(i)) idx in
  let out_schema = Schema.concat left.schema right.schema in
  let build () =
    let table = Hashtbl.create 1024 in
    Seq.iter
      (fun row ->
        let k = key ridx row in
        let existing = try Hashtbl.find table k with Not_found -> [] in
        Hashtbl.replace table k (row :: existing))
      right.rows;
    table
  in
  (* Direct probe loop (cheaper than [Seq.concat_map] over per-match
     sub-sequences). [?trace] adds an int increment per output row and a
     span at exhaustion; it costs nothing when tracing is disabled. *)
  let rows () =
    let tr =
      match trace with
      | Some name when Gb_obs.Obs.enabled () ->
        Some (name, Gb_obs.Obs.now (), Gb_obs.Profile.start ())
      | _ -> None
    in
    let lanes = Gb_par.Pool.jobs () in
    if lanes > 1 && not (Gb_par.Pool.in_parallel_region ()) then begin
      let out =
        hash_join_par ~lanes ~lkey:(key lidx) ~rkey:(key ridx) left.rows
          right.rows
      in
      (match tr with
      | Some (name, t0, gc) -> emit_op_span ~name ~t0 ~gc (List.length out)
      | None -> ());
      List.to_seq out ()
    end
    else begin
      let table = build () in
      let n = ref 0 in
      let rec outer l () =
        match l () with
        | Seq.Nil ->
          (match tr with
          | Some (name, t0, gc) -> emit_op_span ~name ~t0 ~gc !n
          | None -> ());
          Seq.Nil
        | Seq.Cons (lrow, lrest) -> (
          match Hashtbl.find_opt table (key lidx lrow) with
          | None -> outer lrest ()
          | Some matches -> inner lrow (List.rev matches) lrest ())
      and inner lrow ms lrest () =
        match ms with
        | [] -> outer lrest ()
        | rrow :: tl ->
          incr n;
          Seq.Cons (Array.append lrow rrow, inner lrow tl lrest)
      in
      outer left.rows ()
    end
  in
  { schema = out_schema; rows }

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

let sort ~by r =
  let keys = List.map (fun (n, dir) -> (Schema.index r.schema n, dir)) by in
  let cmp a b =
    let rec go = function
      | [] -> 0
      | (i, dir) :: rest ->
        let c = Value.compare a.(i) b.(i) in
        let c = match dir with `Asc -> c | `Desc -> -c in
        if c <> 0 then c else go rest
    in
    go keys
  in
  let rows () =
    let arr = Array.of_seq r.rows in
    Array.sort cmp arr;
    Array.to_seq arr ()
  in
  { r with rows }

let limit n r = { r with rows = Seq.take n r.rows }

let column_floats r name =
  let i = Schema.index r.schema name in
  let out = ref [] in
  Seq.iter (fun row -> out := Value.to_float row.(i) :: !out) r.rows;
  Array.of_list (List.rev !out)

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

let merge_join ~on left right =
  let lidx = List.map (fun (l, _) -> Schema.index left.schema l) on in
  let ridx = List.map (fun (_, r) -> Schema.index right.schema r) on in
  let key idx row = List.map (fun i -> row.(i)) idx in
  let cmp_keys a b =
    let rec go = function
      | [], [] -> 0
      | x :: xs, y :: ys ->
        let c = Value.compare x y in
        if c <> 0 then c else go (xs, ys)
      | _ -> invalid_arg "merge_join: key arity"
    in
    go (a, b)
  in
  let out_schema = Schema.concat left.schema right.schema in
  let rows () =
    let larr = Array.of_seq left.rows and rarr = Array.of_seq right.rows in
    let by idx a b = cmp_keys (key idx a) (key idx b) in
    Array.sort (by lidx) larr;
    Array.sort (by ridx) rarr;
    let out = ref [] in
    let i = ref 0 and j = ref 0 in
    let nl = Array.length larr and nr = Array.length rarr in
    while !i < nl && !j < nr do
      let lk = key lidx larr.(!i) and rk = key ridx rarr.(!j) in
      let c = cmp_keys lk rk in
      if c < 0 then incr i
      else if c > 0 then incr j
      else begin
        (* Find the extent of the matching group on each side. *)
        let i1 = ref !i in
        while !i1 < nl && cmp_keys (key lidx larr.(!i1)) lk = 0 do
          incr i1
        done;
        let j1 = ref !j in
        while !j1 < nr && cmp_keys (key ridx rarr.(!j1)) rk = 0 do
          incr j1
        done;
        for a = !i to !i1 - 1 do
          for b = !j to !j1 - 1 do
            out := Array.append larr.(a) rarr.(b) :: !out
          done
        done;
        i := !i1;
        j := !j1
      end
    done;
    List.to_seq (List.rev !out) ()
  in
  { schema = out_schema; rows }
