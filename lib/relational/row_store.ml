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

(* Byte offset of field [i] of the tuple at [start]: fixed when every
   field is, else as [Codec.offsets] wrote it into [offs]. *)
let field_at fixed offs start i =
  match fixed with Some _ -> start + (8 * i) | None -> offs.(i)

let scan ?keep t cols =
  let schema = t.schema in
  let tys = Array.map (Schema.ty schema) cols in
  let width = Array.length cols in
  let fixed = Codec.fixed_width schema in
  fun () ->
    (* One cursor per traversal, advanced in place: no closure or pair
       per tuple, and a tuple the key test rejects is stepped over
       without decoding any of it. *)
    let pages = ref (List.rev t.pages) in
    let page = ref { data = Bytes.empty; used = 0; nslots = 0 } in
    let slot = ref 0 and pos = ref 0 in
    let offs = Array.make (Schema.arity schema) 0 in
    let rec next () =
      let p = !page in
      if !slot < p.nslots then begin
        let start = !pos in
        incr slot;
        pos :=
          (match fixed with
          | Some size -> start + size
          | None -> Codec.offsets schema p.data start offs);
        match keep with
        | Some (key, test)
          when not (test 1 (Codec.int_at p.data (field_at fixed offs start key)))
          ->
          next ()
        | _ ->
          Gb_obs.Telemetry.add tuples_decoded 1;
          let row = Array.make width (Value.Int 0) in
          for c = 0 to width - 1 do
            row.(c) <- Codec.field tys.(c) p.data (field_at fixed offs start cols.(c))
          done;
          Seq.Cons (row, next)
      end
      else
        match !pages with
        | [] -> Seq.Nil
        | p :: rest ->
          Gb_obs.Telemetry.add pages_read 1;
          pages := rest;
          page := p;
          slot := 0;
          pos := 0;
          next ()
    in
    next ()

let to_seq t = scan t (Array.init (Schema.arity t.schema) Fun.id)
let iter t f = Seq.iter f (to_seq t)

let of_rows schema rows =
  let t = create schema in
  insert_all t rows;
  t
