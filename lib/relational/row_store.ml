let page_size = 64 * 1024

type page = { data : Bytes.t; mutable used : int; mutable nslots : int }

type t = {
  schema : Schema.t;
  mutable pages : page list; (* reverse order *)
  mutable current : page;
  mutable count : int;
}

let new_page () = { data = Bytes.create page_size; used = 0; nslots = 0 }

let create schema =
  let p = new_page () in
  { schema; pages = [ p ]; current = p; count = 0 }

let schema t = t.schema

let insert t row =
  let size = Codec.encoded_size t.schema row in
  if size > page_size then invalid_arg "Row_store.insert: row exceeds page";
  if t.current.used + size > page_size then begin
    let p = new_page () in
    t.pages <- p :: t.pages;
    t.current <- p
  end;
  let written = Codec.encode t.schema row t.current.data t.current.used in
  t.current.used <- t.current.used + written;
  t.current.nslots <- t.current.nslots + 1;
  t.count <- t.count + 1

let insert_all t rows = List.iter (insert t) rows
let row_count t = t.count
let page_count t = List.length t.pages

let tuples_decoded = Gb_obs.Telemetry.counter ~help:"tuple" "storage_tuples_decoded"
let pages_read = Gb_obs.Telemetry.counter ~help:"page" "storage_pages_read"

let iter t f =
  List.iter
    (fun page ->
      Gb_obs.Telemetry.add pages_read 1;
      Gb_obs.Telemetry.add tuples_decoded page.nslots;
      let pos = ref 0 in
      for _ = 1 to page.nslots do
        let row, consumed = Codec.decode t.schema page.data !pos in
        pos := !pos + consumed;
        f row
      done)
    (List.rev t.pages)

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun row -> acc := f !acc row);
  !acc

let to_seq t =
  let pages = List.rev t.pages in
  let rec page_seq pages () =
    match pages with
    | [] -> Seq.Nil
    | page :: rest ->
      Gb_obs.Telemetry.add pages_read 1;
      slots_seq page rest 0 0 ()
  and slots_seq page rest slot pos () =
    if slot >= page.nslots then page_seq rest ()
    else begin
      Gb_obs.Telemetry.add tuples_decoded 1;
      let row, consumed = Codec.decode t.schema page.data pos in
      Seq.Cons (row, slots_seq page rest (slot + 1) (pos + consumed))
    end
  in
  page_seq pages

let of_rows schema rows =
  let t = create schema in
  insert_all t rows;
  t
