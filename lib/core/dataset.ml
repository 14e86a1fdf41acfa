module G = Gb_datagen.Generate
module Spec = Gb_datagen.Spec
module Mat = Gb_linalg.Mat
open Gb_relational

type t = G.t

let generate = G.generate
let of_size size = G.generate (Spec.of_size size)

let microarray_schema =
  Schema.make
    [ ("gene_id", Value.TInt); ("patient_id", Value.TInt); ("value", Value.TFloat) ]

let patients_schema =
  Schema.make
    [
      ("patient_id", Value.TInt);
      ("age", Value.TInt);
      ("gender", Value.TInt);
      ("zipcode", Value.TInt);
      ("disease_id", Value.TInt);
      ("drug_response", Value.TFloat);
    ]

let genes_schema =
  Schema.make
    [
      ("gene_id", Value.TInt);
      ("target", Value.TInt);
      ("position", Value.TInt);
      ("length", Value.TInt);
      ("func", Value.TInt);
    ]

let go_schema =
  Schema.make [ ("gene_id", Value.TInt); ("go_id", Value.TInt) ]

let variants_schema =
  Schema.make
    [ ("variant_id", Value.TInt); ("vstart", Value.TInt); ("vlen", Value.TInt) ]

let microarray_rows (t : t) =
  let p, g = Mat.dims t.expression in
  let out = ref [] in
  for j = g - 1 downto 0 do
    for i = p - 1 downto 0 do
      out :=
        [| Value.Int j; Value.Int i; Value.Float (Mat.unsafe_get t.expression i j) |]
        :: !out
    done
  done;
  !out

let patients_rows (t : t) =
  Array.to_list t.patients
  |> List.map (fun (p : G.patient) ->
         [|
           Value.Int p.patient_id;
           Value.Int p.age;
           Value.Int p.gender;
           Value.Int p.zipcode;
           Value.Int p.disease_id;
           Value.Float p.drug_response;
         |])

let genes_rows (t : t) =
  Array.to_list t.genes
  |> List.map (fun (g : G.gene) ->
         [|
           Value.Int g.gene_id;
           Value.Int g.target;
           Value.Int g.position;
           Value.Int g.length;
           Value.Int g.func;
         |])

let go_rows (t : t) =
  Array.to_list t.go
  |> List.map (fun (g, term) -> [| Value.Int g; Value.Int term |])

let variants_rows (t : t) =
  Array.to_list t.variants
  |> List.map (fun (v : G.variant) ->
         [| Value.Int v.variant_id; Value.Int v.vstart; Value.Int v.vlen |])

type relational_db = {
  microarray_r : Row_store.t;
  patients_r : Row_store.t;
  genes_r : Row_store.t;
  go_r : Row_store.t;
  variants_r : Row_store.t;
}

type columnar_db = {
  microarray_c : Col_store.t;
  patients_c : Col_store.t;
  genes_c : Col_store.t;
  go_c : Col_store.t;
  variants_c : Col_store.t;
}

(* The microarray table is stored straight from the expression matrix,
   in [microarray_rows]'s order (gene-major, ascending) so pages and
   column encodings come out identical, but without materializing a
   boxed row per cell first. *)
let iter_microarray (t : t) f =
  let p, g = Mat.dims t.expression in
  for j = 0 to g - 1 do
    for i = 0 to p - 1 do
      f j i (Mat.unsafe_get t.expression i j)
    done
  done

let load_row_stores t =
  let microarray_r = Row_store.create microarray_schema in
  iter_microarray t (fun j i v ->
      Row_store.insert microarray_r [| Value.Int j; Value.Int i; Value.Float v |]);
  {
    microarray_r;
    patients_r = Row_store.of_rows patients_schema (patients_rows t);
    genes_r = Row_store.of_rows genes_schema (genes_rows t);
    go_r = Row_store.of_rows go_schema (go_rows t);
    variants_r = Row_store.of_rows variants_schema (variants_rows t);
  }

let load_col_stores (t : t) =
  let p, g = Mat.dims t.expression in
  let n = p * g in
  let gene = Array.make n 0 and patient = Array.make n 0 in
  let value = Array.create_float n in
  iter_microarray t (fun j i v ->
      let r = (j * p) + i in
      gene.(r) <- j;
      patient.(r) <- i;
      value.(r) <- v);
  {
    microarray_c =
      Col_store.of_compressed microarray_schema
        [| Column.of_ints gene; Column.of_ints patient; Column.Float_plain value |];
    patients_c = Col_store.of_rows patients_schema (patients_rows t);
    genes_c = Col_store.of_rows genes_schema (genes_rows t);
    go_c = Col_store.of_rows go_schema (go_rows t);
    variants_c = Col_store.of_rows variants_schema (variants_rows t);
  }

type array_db = {
  expression : Gb_arraydb.Chunked.t;
  patient_attrs : Gb_arraydb.Attr_array.t;
  gene_attrs : Gb_arraydb.Attr_array.t;
  go_pairs : (int * int) array;
  variant_ranges : (int * int) array;
      (* (vstart, vlen) indexed by variant_id: a 1-D ragged array of
         genomic ranges, the natural SciDB layout for interval data *)
}

let load_array_db (t : t) =
  let fi = float_of_int in
  {
    expression = Gb_arraydb.Chunked.of_matrix t.expression;
    patient_attrs =
      Gb_arraydb.Attr_array.of_columns
        [
          ("age", Array.map (fun (p : G.patient) -> fi p.age) t.patients);
          ("gender", Array.map (fun (p : G.patient) -> fi p.gender) t.patients);
          ("zipcode", Array.map (fun (p : G.patient) -> fi p.zipcode) t.patients);
          ( "disease_id",
            Array.map (fun (p : G.patient) -> fi p.disease_id) t.patients );
          ( "drug_response",
            Array.map (fun (p : G.patient) -> p.drug_response) t.patients );
        ];
    gene_attrs =
      Gb_arraydb.Attr_array.of_columns
        [
          ("target", Array.map (fun (g : G.gene) -> fi g.target) t.genes);
          ("position", Array.map (fun (g : G.gene) -> fi g.position) t.genes);
          ("length", Array.map (fun (g : G.gene) -> fi g.length) t.genes);
          ("func", Array.map (fun (g : G.gene) -> fi g.func) t.genes);
        ];
    go_pairs = t.go;
    variant_ranges =
      Array.map (fun (v : G.variant) -> (v.vstart, v.vlen)) t.variants;
  }

type hadoop_db = {
  microarray_h : string list;
  patients_h : string list;
  genes_h : string list;
  go_h : string list;
  variants_h : string list;
}

let load_hadoop_db (t : t) =
  let p, g = Mat.dims t.expression in
  let micro = ref [] in
  for j = g - 1 downto 0 do
    for i = p - 1 downto 0 do
      micro :=
        Printf.sprintf "%d,%d,%.12g" j i (Mat.unsafe_get t.expression i j)
        :: !micro
    done
  done;
  {
    microarray_h = !micro;
    patients_h =
      Array.to_list t.patients
      |> List.map (fun (p : G.patient) ->
             Printf.sprintf "%d,%d,%d,%d,%d,%.12g" p.patient_id p.age p.gender
               p.zipcode p.disease_id p.drug_response);
    genes_h =
      Array.to_list t.genes
      |> List.map (fun (g : G.gene) ->
             Printf.sprintf "%d,%d,%d,%d,%d" g.gene_id g.target g.position
               g.length g.func);
    go_h =
      Array.to_list t.go
      |> List.map (fun (g, term) -> Printf.sprintf "%d,%d" g term);
    variants_h =
      Array.to_list t.variants
      |> List.map (fun (v : G.variant) ->
             Printf.sprintf "%d,%d,%d" v.variant_id v.vstart v.vlen);
  }
