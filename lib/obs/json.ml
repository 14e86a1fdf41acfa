(* Minimal JSON: a value type, a recursive-descent parser, and a
   serializer. Shared by the Chrome trace importer and the bench-baseline
   pipeline (BENCH_*.json files that must be both emitted and re-read),
   with no external dependency. Strings are bytes: the serializer passes
   non-ASCII through, and the parser decodes \u escapes to UTF-8. *)

type t =
  | Null
  | JBool of bool
  | Num of float
  | JStr of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- escaping / serialization --- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Integers print as integers; other floats keep 12 significant digits —
   enough to round-trip benchmark timings while staying diff-readable.
   A float whose 12 digits read back as an integer prints as that
   integer, so render∘parse is a fixed point. Non-finite numbers have
   no JSON encoding and degrade to null. *)
let number_to_string f =
  let integral g = Float.is_integer g && Float.abs g < 1e15 in
  if not (Float.is_finite f) then "null"
  else if integral f then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.12g" f in
    let g = float_of_string s in
    if integral g then Printf.sprintf "%.0f" g else s

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | JBool b -> Buffer.add_string buf (string_of_bool b)
  | Num f -> Buffer.add_string buf (number_to_string f)
  | JStr s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | Arr l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      l;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\":";
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* --- parsing --- *)

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_lit lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      v
    end
    else fail ("bad literal " ^ lit)
  in
  (* Exactly four hex digits after the 'u' at [!pos]; leaves [!pos] on
     the last of them. *)
  let hex4 () =
    let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if !pos + 4 >= n || not (String.for_all is_hex (String.sub s (!pos + 1) 4))
    then fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ String.sub s (!pos - 3) 4)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "bad escape");
        (match s.[!pos] with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          (* A high surrogate must pair with a low one; either half alone
             names no character. *)
          let code = hex4 () in
          let code =
            if code land 0xFC00 = 0xD800 && !pos + 2 < n
               && String.sub s (!pos + 1) 2 = "\\u"
            then begin
              pos := !pos + 2;
              let lo = hex4 () in
              if lo land 0xFC00 <> 0xDC00 then fail "lone surrogate in \\u escape";
              0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00)
            end
            else if code land 0xF800 = 0xD800 then
              fail "lone surrogate in \\u escape"
            else code
          in
          Buffer.add_utf_8_uchar buf (Uchar.of_int code)
        | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
        advance ();
        go ()
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let str = String.sub s start (!pos - start) in
    (* [1e400] overflows to infinity, which has no JSON encoding: reject
       it rather than let a round trip write it back as null. *)
    match float_of_string_opt str with
    | Some f when Float.is_finite f -> Num f
    | _ -> fail ("bad number " ^ str)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            members ((k, v) :: acc)
          | '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            elements (v :: acc)
          | ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
      end
    | '"' -> JStr (parse_string ())
    | 't' -> parse_lit "true" (JBool true)
    | 'f' -> parse_lit "false" (JBool false)
    | 'n' -> parse_lit "null" Null
    | _ -> parse_number ()
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
    else Ok v
  with Parse_error msg -> Error msg

(* --- accessors for consumers walking parsed trees --- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_str = function JStr s -> Some s | _ -> None
let to_num = function Num f -> Some f | _ -> None
let to_arr = function Arr l -> Some l | _ -> None
