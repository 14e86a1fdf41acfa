module Mat = Gb_linalg.Mat

type t = { matrix : Mat.t; row_ids : int array; col_ids : int array }

module Int_table = Hashtbl.Make (Int)

(* The distinct ids among [ids.(0 .. n-1)] in ascending order, and each
   id's position among them. *)
let dense ids n =
  let position = Int_table.create 1024 in
  for k = 0 to n - 1 do
    Int_table.replace position ids.(k) 0
  done;
  let sorted = Array.of_seq (Int_table.to_seq_keys position) in
  Array.sort Int.compare sorted;
  Array.iteri (fun i id -> Int_table.replace position id i) sorted;
  (sorted, position)

(* [a]'s first [n] cells in an array of twice the length from [fresh]. *)
let grow fresh a n =
  let b = fresh (2 * n) in
  Array.blit a 0 b 0 n;
  b

let of_triples ~row_col ~col_col ~value_col rel =
  let ri = Schema.index rel.Ops.schema row_col in
  let ci = Schema.index rel.Ops.schema col_col in
  let vi = Schema.index rel.Ops.schema value_col in
  (* Two passes would re-run the pipeline; materialize compactly
     instead, into unboxed columns. *)
  let rows = ref (Array.make 1024 0) and cols = ref (Array.make 1024 0) in
  let vals = ref (Array.create_float 1024) and n = ref 0 in
  Seq.iter
    (fun row ->
      if !n = Array.length !rows then begin
        rows := grow (fun len -> Array.make len 0) !rows !n;
        cols := grow (fun len -> Array.make len 0) !cols !n;
        vals := grow Array.create_float !vals !n
      end;
      !rows.(!n) <- Value.to_int row.(ri);
      !cols.(!n) <- Value.to_int row.(ci);
      (!vals).(!n) <-
        (match row.(vi) with Value.Float f -> f | v -> Value.to_float v);
      incr n)
    rel.Ops.rows;
  let row_ids, row_of = dense !rows !n and col_ids, col_of = dense !cols !n in
  let matrix = Mat.create (Array.length row_ids) (Array.length col_ids) in
  let nc = Array.length col_ids in
  let rows = !rows and cols = !cols and vals = !vals in
  (* Last to first: of duplicate cells, the first in the stream wins. *)
  for k = !n - 1 downto 0 do
    Bigarray.Array1.unsafe_set matrix.Mat.data
      ((Int_table.find row_of rows.(k) * nc) + Int_table.find col_of cols.(k))
      vals.(k)
  done;
  { matrix; row_ids; col_ids }

let to_triples ~row_col ~col_col ~value_col t =
  let schema =
    Schema.make
      [ (row_col, Value.TInt); (col_col, Value.TInt); (value_col, Value.TFloat) ]
  in
  let nr, nc = Mat.dims t.matrix in
  let rec go i j () =
    if i >= nr then Seq.Nil
    else if j >= nc then go (i + 1) 0 ()
    else
      Seq.Cons
        ( [|
            Value.Int t.row_ids.(i);
            Value.Int t.col_ids.(j);
            Value.Float (Mat.unsafe_get t.matrix i j);
          |],
          go i (j + 1) )
  in
  { Ops.schema; rows = go 0 0 }
