type t = { schema : Schema.t; columns : Column.t array; nrows : int }

let of_columns schema cols =
  if Array.length cols <> Schema.arity schema then
    invalid_arg "Col_store.of_columns: arity";
  let nrows = if Array.length cols = 0 then 0 else Array.length cols.(0) in
  Array.iter
    (fun c ->
      if Array.length c <> nrows then invalid_arg "Col_store: ragged columns")
    cols;
  (* Columns compress independently — one task per column. *)
  let columns =
    Gb_par.Pool.map_array
      (fun i -> Column.compress (Schema.ty schema i) cols.(i))
      (Array.init (Array.length cols) Fun.id)
  in
  { schema; columns; nrows }

let of_rows schema rows =
  let nrows = List.length rows in
  let arity = Schema.arity schema in
  let cols = Array.init arity (fun _ -> Array.make nrows (Value.Int 0)) in
  List.iteri
    (fun r row ->
      if Array.length row <> arity then invalid_arg "Col_store.of_rows: arity";
      for c = 0 to arity - 1 do
        cols.(c).(r) <- row.(c)
      done)
    rows;
  of_columns schema cols

let schema t = t.schema
let row_count t = t.nrows
let column t i = t.columns.(i)

let iter_cols t names f =
  let idx = List.map (Schema.index t.schema) names in
  let mats = List.map (fun i -> Column.to_values t.columns.(i)) idx in
  let mats = Array.of_list mats in
  let width = Array.length mats in
  for r = 0 to t.nrows - 1 do
    let row = Array.make width (Value.Int 0) in
    for c = 0 to width - 1 do
      row.(c) <- mats.(c).(r)
    done;
    f row
  done

let iter t f =
  iter_cols t (List.map fst (Schema.columns t.schema)) f

let rows_scanned = Gb_obs.Telemetry.counter ~help:"row" "storage_rows_scanned"
let values_decoded = Gb_obs.Telemetry.counter ~help:"value" "storage_values_decoded"

let to_seq t names =
  let idx = List.map (Schema.index t.schema) names in
  Gb_obs.Telemetry.add rows_scanned t.nrows;
  Gb_obs.Telemetry.add values_decoded (t.nrows * List.length idx);
  (* Decoding is per-column independent — one task per column. *)
  let mats =
    Array.of_list
      (Gb_par.Pool.map_list (fun i -> Column.to_values t.columns.(i)) idx)
  in
  let width = Array.length mats in
  let rec go r () =
    if r >= t.nrows then Seq.Nil
    else begin
      let row = Array.init width (fun c -> mats.(c).(r)) in
      Seq.Cons (row, go (r + 1))
    end
  in
  go 0

let compression_report t =
  List.mapi
    (fun i (name, _) ->
      (name, Column.encoding_name t.columns.(i), Column.byte_size t.columns.(i)))
    (Schema.columns t.schema)

let zone_block = 4096

(* Per-block (min, max) of a numeric column — computed on demand and not
   cached: the store is immutable and scans dominate, so the single pass
   here is cheap relative to what skipping saves. *)
let zone_map t col_idx =
  let c = t.columns.(col_idx) in
  let nblocks = (t.nrows + zone_block - 1) / zone_block in
  let lo = Array.make nblocks infinity in
  let hi = Array.make nblocks neg_infinity in
  Column.iter
    (fun i v ->
      let b = i / zone_block in
      let f = Value.to_float v in
      if f < lo.(b) then lo.(b) <- f;
      if f > hi.(b) then hi.(b) <- f)
    c;
  (lo, hi)

let scan_range t names ~on ~lo ~hi =
  let oi = Schema.index t.schema on in
  let zlo, zhi = zone_map t oi in
  let live =
    Array.init (Array.length zlo) (fun b -> not (zhi.(b) < lo || zlo.(b) > hi))
  in
  let skipped =
    Array.fold_left (fun acc alive -> if alive then acc else acc + 1) 0 live
  in
  let idx = List.map (Schema.index t.schema) names in
  Gb_obs.Telemetry.add rows_scanned (t.nrows - (skipped * zone_block));
  Gb_obs.Telemetry.add values_decoded (t.nrows * (1 + List.length idx));
  let mats =
    Array.of_list
      (Gb_par.Pool.map_list (fun i -> Column.to_values t.columns.(i)) idx)
  in
  let on_vals = Column.to_values t.columns.(oi) in
  let width = Array.length mats in
  let lanes = Gb_par.Pool.jobs () in
  if lanes > 1 && not (Gb_par.Pool.in_parallel_region ()) then begin
    (* Block-parallel filter, deferred to first pull so the operator
       stays lazy at construction. Zone blocks partition the row space;
       each task selects its surviving row indices, and block results
       concatenate in ascending order — the same row sequence the
       sequential scan below yields. *)
    let rows () =
      let nblocks = Array.length live in
      let selected =
        Gb_par.Pool.map_list
          (fun b ->
            if not live.(b) then []
            else begin
              let r_hi = min t.nrows ((b + 1) * zone_block) in
              let acc = ref [] in
              for r = r_hi - 1 downto b * zone_block do
                let v = Value.to_float on_vals.(r) in
                if v >= lo && v <= hi then acc := r :: !acc
              done;
              !acc
            end)
          (List.init nblocks Fun.id)
      in
      let rec emit = function
        | [] -> Seq.Nil
        | r :: rest ->
          Seq.Cons (Array.init width (fun c -> mats.(c).(r)), fun () -> emit rest)
      in
      emit (List.concat selected)
    in
    (rows, skipped)
  end
  else begin
    let rec go r () =
      if r >= t.nrows then Seq.Nil
      else if not live.(r / zone_block) then
        (* Jump to the next block boundary. *)
        go (((r / zone_block) + 1) * zone_block) ()
      else begin
        let v = Value.to_float on_vals.(r) in
        if v >= lo && v <= hi then
          Seq.Cons (Array.init width (fun c -> mats.(c).(r)), go (r + 1))
        else go (r + 1) ()
      end
    in
    (go 0, skipped)
  end
