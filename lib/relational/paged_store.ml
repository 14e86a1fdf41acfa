(* Page layout: [0..3] slot count, [4..7] used bytes, then packed rows. *)

let header_bytes = 8
let page_size = Row_store.page_size

type t = {
  schema : Schema.t;
  pool : Buffer_pool.t;
  mutable pages : int list; (* reverse order *)
  mutable current : int; (* page id, -1 if none *)
  mutable count : int;
}

let create ?(pool_frames = 64) schema =
  {
    schema;
    pool = Buffer_pool.create ~frames:pool_frames ~page_bytes:page_size ();
    pages = [];
    current = -1;
    count = 0;
  }

let schema t = t.schema
let row_count t = t.count
let page_count t = List.length t.pages
let pool_stats t = Buffer_pool.stats t.pool
let close t = Buffer_pool.close t.pool

let get_header buf =
  (Int32.to_int (Bytes.get_int32_le buf 0), Int32.to_int (Bytes.get_int32_le buf 4))

let set_header buf nslots used =
  Bytes.set_int32_le buf 0 (Int32.of_int nslots);
  Bytes.set_int32_le buf 4 (Int32.of_int used)

let fresh_page t =
  let id = Buffer_pool.allocate t.pool in
  Buffer_pool.with_page t.pool id (fun buf -> set_header buf 0 header_bytes);
  t.pages <- id :: t.pages;
  t.current <- id;
  id

let insert t row =
  let size = Codec.encoded_size t.schema row in
  if size > page_size - header_bytes then
    invalid_arg "Paged_store.insert: row exceeds page";
  let page =
    if t.current = -1 then fresh_page t
    else begin
      let _, used =
        Buffer_pool.read_page t.pool t.current (fun buf -> get_header buf)
      in
      if used + size > page_size then fresh_page t else t.current
    end
  in
  Buffer_pool.with_page t.pool page (fun buf ->
      let nslots, used = get_header buf in
      let written = Codec.encode t.schema row buf used in
      set_header buf (nslots + 1) (used + written));
  t.count <- t.count + 1

let to_seq t =
  let pages = List.rev t.pages in
  let rec page_seq pages () =
    match pages with
    | [] -> Seq.Nil
    | page :: rest ->
      (* Decode the whole page under one pin; pages are immutable after
         the writer moves on, so copying the rows out is sound. *)
      let rows =
        Buffer_pool.read_page t.pool page (fun buf ->
            let nslots, _ = get_header buf in
            let out = ref [] in
            let pos = ref header_bytes in
            let offs = Array.make (Schema.arity t.schema) 0 in
            for _ = 1 to nslots do
              out := Codec.decode t.schema buf !pos :: !out;
              pos := Codec.offsets t.schema buf !pos offs
            done;
            List.rev !out)
      in
      Seq.append (List.to_seq rows) (page_seq rest) ()
  in
  page_seq pages

let iter t f = Seq.iter f (to_seq t)

let of_rows ?pool_frames schema rows =
  let t = create ?pool_frames schema in
  List.iter (insert t) rows;
  t
