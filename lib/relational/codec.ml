let encoded_size schema row =
  let n = Array.length row in
  if n <> Schema.arity schema then invalid_arg "Codec: arity";
  let size = ref 0 in
  Array.iter
    (fun v ->
      size :=
        !size
        +
        match v with
        | Value.Int _ | Value.Float _ -> 8
        | Value.Str s -> 4 + String.length s)
    row;
  !size

let encode schema row buf off =
  let pos = ref off in
  Array.iteri
    (fun i v ->
      (match (Schema.ty schema i, v) with
      | Value.TInt, Value.Int x ->
        Bytes.set_int64_le buf !pos (Int64.of_int x);
        pos := !pos + 8
      | Value.TFloat, Value.Float f ->
        Bytes.set_int64_le buf !pos (Int64.bits_of_float f);
        pos := !pos + 8
      | Value.TFloat, Value.Int x ->
        Bytes.set_int64_le buf !pos (Int64.bits_of_float (float_of_int x));
        pos := !pos + 8
      | Value.TStr, Value.Str s ->
        Bytes.set_int32_le buf !pos (Int32.of_int (String.length s));
        Bytes.blit_string s 0 buf (!pos + 4) (String.length s);
        pos := !pos + 4 + String.length s
      | _ -> invalid_arg "Codec.encode: type mismatch"))
    row;
  !pos - off

let int_at buf pos = Int64.to_int (Bytes.get_int64_le buf pos)

let field_size ty buf pos =
  match ty with
  | Value.TInt | Value.TFloat -> 8
  | Value.TStr -> 4 + Int32.to_int (Bytes.get_int32_le buf pos)

let field ty buf pos =
  match ty with
  | Value.TInt -> Value.Int (int_at buf pos)
  | Value.TFloat -> Value.Float (Int64.float_of_bits (Bytes.get_int64_le buf pos))
  | Value.TStr ->
    Value.Str
      (Bytes.sub_string buf (pos + 4) (Int32.to_int (Bytes.get_int32_le buf pos)))

let fixed_width schema =
  let rec go i acc =
    if i = Schema.arity schema then Some acc
    else
      match Schema.ty schema i with
      | Value.TStr -> None
      | Value.TInt | Value.TFloat -> go (i + 1) (acc + 8)
  in
  go 0 0

let offsets schema buf off offs =
  let pos = ref off in
  for i = 0 to Schema.arity schema - 1 do
    offs.(i) <- !pos;
    pos := !pos + field_size (Schema.ty schema i) buf !pos
  done;
  !pos

let decode schema buf off =
  let offs = Array.make (Schema.arity schema) 0 in
  ignore (offsets schema buf off offs);
  Array.mapi (fun i pos -> field (Schema.ty schema i) buf pos) offs
