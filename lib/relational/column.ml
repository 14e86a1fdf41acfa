type t =
  | Int_plain of int array
  | Int_rle of { run_values : int array; run_starts : int array; len : int }
  | Int_for of { base : int; width : int; packed : int array; len : int }
  | Float_plain of float array
  | Str_dict of { dict : string array; codes : int array }

let length = function
  | Int_plain a -> Array.length a
  | Int_rle r -> r.len
  | Int_for f -> f.len
  | Float_plain a -> Array.length a
  | Str_dict d -> Array.length d.codes

(* --- bit packing for frame-of-reference --- *)

let bits_needed range =
  if range <= 0 then 1
  else begin
    let b = ref 0 and v = ref range in
    while !v > 0 do
      incr b;
      v := !v lsr 1
    done;
    !b
  end

let pack_ints base width values =
  let n = Array.length values in
  let per_word = 63 / width in
  let words = (n + per_word - 1) / per_word in
  let packed = Array.make words 0 in
  Array.iteri
    (fun i v ->
      let off = v - base in
      let w = i / per_word and slot = i mod per_word in
      packed.(w) <- packed.(w) lor (off lsl (slot * width)))
    values;
  packed

let unpack_int ~base ~width packed i =
  let per_word = 63 / width in
  let w = i / per_word and slot = i mod per_word in
  let mask = (1 lsl width) - 1 in
  base + ((packed.(w) lsr (slot * width)) land mask)

(* --- run-length --- *)

let rle_of_ints a =
  let n = Array.length a in
  let values = ref [] and starts = ref [] in
  let i = ref 0 in
  while !i < n do
    let v = a.(!i) in
    values := v :: !values;
    starts := !i :: !starts;
    incr i;
    while !i < n && a.(!i) = v do
      incr i
    done
  done;
  Int_rle
    {
      run_values = Array.of_list (List.rev !values);
      run_starts = Array.of_list (List.rev !starts);
      len = n;
    }

let count_runs a =
  let n = Array.length a in
  let runs = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || a.(i) <> a.(i - 1) then incr runs
  done;
  !runs

let of_ints a =
  let n = Array.length a in
  if n = 0 then Int_plain [||]
  else begin
    let runs = count_runs a in
    if runs * 4 <= n then rle_of_ints a
    else begin
      let lo = Array.fold_left min a.(0) a in
      let hi = Array.fold_left max a.(0) a in
      let width = bits_needed (hi - lo) in
      if width <= 32 then
        Int_for { base = lo; width; packed = pack_ints lo width a; len = n }
      else Int_plain (Array.copy a)
    end
  end

let compress ty values =
  match ty with
  | Value.TInt -> of_ints (Array.map Value.to_int values)
  | Value.TFloat -> Float_plain (Array.map Value.to_float values)
  | Value.TStr ->
    let tbl = Hashtbl.create 64 in
    let dict = ref [] and next = ref 0 in
    let codes =
      Array.map
        (fun v ->
          let s = match v with Value.Str s -> s | _ -> invalid_arg "Column" in
          match Hashtbl.find_opt tbl s with
          | Some c -> c
          | None ->
            let c = !next in
            Hashtbl.add tbl s c;
            dict := s :: !dict;
            incr next;
            c)
        values
    in
    Str_dict { dict = Array.of_list (List.rev !dict); codes }

let rle_find r i =
  (* Largest run index whose start <= i. *)
  let lo = ref 0 and hi = ref (Array.length r - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if r.(mid) <= i then lo := mid else hi := mid - 1
  done;
  !lo

let get t i =
  if i < 0 || i >= length t then invalid_arg "Column.get: index";
  match t with
  | Int_plain a -> Value.Int a.(i)
  | Int_rle r -> Value.Int r.run_values.(rle_find r.run_starts i)
  | Int_for f -> Value.Int (unpack_int ~base:f.base ~width:f.width f.packed i)
  | Float_plain a -> Value.Float a.(i)
  | Str_dict d -> Value.Str d.dict.(d.codes.(i))

let iter f = function
  | Int_plain a -> Array.iteri (fun i v -> f i (Value.Int v)) a
  | Int_rle r ->
    let nruns = Array.length r.run_values in
    for k = 0 to nruns - 1 do
      let stop = if k + 1 < nruns then r.run_starts.(k + 1) else r.len in
      let v = Value.Int r.run_values.(k) in
      for i = r.run_starts.(k) to stop - 1 do
        f i v
      done
    done
  | Int_for fr ->
    for i = 0 to fr.len - 1 do
      f i (Value.Int (unpack_int ~base:fr.base ~width:fr.width fr.packed i))
    done
  | Float_plain a -> Array.iteri (fun i v -> f i (Value.Float v)) a
  | Str_dict d -> Array.iteri (fun i c -> f i (Value.Str d.dict.(c))) d.codes

let encoding_name = function
  | Int_plain _ -> "int-plain"
  | Int_rle _ -> "int-rle"
  | Int_for _ -> "int-for"
  | Float_plain _ -> "float-plain"
  | Str_dict _ -> "str-dict"

let byte_size = function
  | Int_plain a -> 8 * Array.length a
  | Int_rle r -> 16 * Array.length r.run_values
  | Int_for f -> 8 * Array.length f.packed
  | Float_plain a -> 8 * Array.length a
  | Str_dict d ->
    (4 * Array.length d.codes)
    + Array.fold_left (fun acc s -> acc + String.length s + 8) 0 d.dict

let to_values t =
  let out = Array.make (length t) (Value.Int 0) in
  iter (fun i v -> out.(i) <- v) t;
  out
