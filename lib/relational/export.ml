module Mat = Gb_linalg.Mat

let rel_to_csv (r : Ops.rel) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (String.concat "," (List.map fst (Schema.columns r.schema)));
  Buffer.add_char buf '\n';
  Seq.iter
    (fun row ->
      Array.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Value.to_string v))
        row;
      Buffer.add_char buf '\n')
    r.rows;
  Buffer.contents buf

let lines s =
  String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let csv_to_rows schema csv =
  match lines csv with
  | [] -> []
  | _header :: rows ->
    List.map
      (fun line ->
        let cells = String.split_on_char ',' line in
        let arr = Array.of_list cells in
        if Array.length arr <> Schema.arity schema then
          failwith "Export.csv_to_rows: arity mismatch";
        Array.mapi (fun i cell -> Value.of_string (Schema.ty schema i) cell) arr)
      rows

let matrix_to_csv m =
  let nr, nc = Mat.dims m in
  let buf = Buffer.create (nr * nc * 8) in
  for i = 0 to nr - 1 do
    for j = 0 to nc - 1 do
      if j > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%.12g" (Mat.unsafe_get m i j))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let csv_to_matrix csv =
  let rows = lines csv in
  let parsed =
    List.map
      (fun line ->
        String.split_on_char ',' line |> List.map float_of_string
        |> Array.of_list)
      rows
  in
  Mat.of_arrays (Array.of_list parsed)

let boundary_bytes = Gb_obs.Telemetry.counter ~help:"byte" "boundary_csv_bytes"

let roundtrip_rel r =
  Gb_obs.Profile.with_ ~cat:"boundary" ~name:"export.roundtrip_rel"
  @@ fun () ->
  let csv = rel_to_csv r in
  Gb_obs.Telemetry.add boundary_bytes (String.length csv);
  Ops.of_list r.Ops.schema (csv_to_rows r.Ops.schema csv)

let roundtrip_matrix m =
  Gb_obs.Profile.with_ ~cat:"boundary" ~name:"export.roundtrip_matrix"
  @@ fun () ->
  let csv = matrix_to_csv m in
  Gb_obs.Telemetry.add boundary_bytes (String.length csv);
  csv_to_matrix csv
