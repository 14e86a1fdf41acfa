type t = { schema : Schema.t; columns : Column.t array; nrows : int }

let of_compressed schema columns =
  if Array.length columns <> Schema.arity schema then
    invalid_arg "Col_store: arity";
  let nrows = if Array.length columns = 0 then 0 else Column.length columns.(0) in
  Array.iter
    (fun c ->
      if Column.length c <> nrows then invalid_arg "Col_store: ragged columns")
    columns;
  { schema; columns; nrows }

let of_columns schema cols =
  (* Columns compress independently — one task per column. *)
  of_compressed schema
    (Gb_par.Pool.map_array
       (fun i -> Column.compress (Schema.ty schema i) cols.(i))
       (Array.init (Array.length cols) Fun.id))

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

let rows_scanned = Gb_obs.Telemetry.counter ~help:"row" "storage_rows_scanned"
let values_decoded = Gb_obs.Telemetry.counter ~help:"value" "storage_values_decoded"

let to_seq ?keep t names =
  let cols =
    Array.of_list
      (List.map (fun n -> t.columns.(Schema.index t.schema n)) names)
  in
  let width = Array.length cols in
  Gb_obs.Telemetry.add rows_scanned t.nrows;
  (* Late materialization, one row at a time: a cell is decoded and
     boxed only when its row is yielded, so a scan never holds a decoded
     copy of a column. Every traversal starts with fresh readers. *)
  let decode read r =
    let row = Array.make width (Value.Int 0) in
    for c = 0 to width - 1 do
      row.(c) <- read.(c) r
    done;
    row
  in
  match keep with
  | None ->
    Gb_obs.Telemetry.add values_decoded (t.nrows * width);
    fun () ->
      let read = Array.map Column.reader cols in
      let rec go r () =
        if r >= t.nrows then Seq.Nil else Seq.Cons (decode read r, go (r + 1))
      in
      go 0 ()
  | Some (key, test) ->
    (* Only the rows of runs the key test keeps are decoded. *)
    let find = Column.find_run t.columns.(key) test in
    fun () ->
      let read = Array.map Column.reader cols in
      let rec seek r () =
        let first, stop = find r in
        run first stop ()
      and run r stop () =
        if r < stop then begin
          Gb_obs.Telemetry.add values_decoded width;
          Seq.Cons (decode read r, run (r + 1) stop)
        end
        else if stop < t.nrows then seek stop ()
        else Seq.Nil
      in
      seek 0 ()

let compression_report t =
  List.mapi
    (fun i (name, _) ->
      (name, Column.encoding_name t.columns.(i), Column.byte_size t.columns.(i)))
    (Schema.columns t.schema)
