module Mat = Gb_linalg.Mat
module A = Bigarray.Array1

external format_float : string -> float -> string = "caml_format_float"

(* 10^0 .. 10^300, each the nearest double (exactly 10^i up to 10^22). *)
let pow10 = Array.init 301 (fun i -> float_of_string ("1e" ^ string_of_int i))

let put out p c =
  Bytes.unsafe_set out p c;
  p + 1

let digit n = Char.unsafe_chr (48 + n)

(* Copies [n] of the digits staged at [out.[20..31]], from the
   [first]th, to [out.[p..]]. *)
let digits out p first n =
  Bytes.blit out (20 + first) out p n;
  p + n

(* The cell text [Printf.sprintf "%.12g"] writes, without a format per
   cell. [write_g12 out x] writes it into [out] from 0 and returns its
   length, with the 12 significant digits staged at [out.[20..31]]. The
   digits are [x] scaled into [1e11, 1e12) in double precision, which is
   off the exact product by under 2.3e-4; so the rounding is decided
   only when the scaled value lies at least 1e-3 from a rounding tie
   and from the ends of that range, and otherwise (a tie, a power of
   ten, zero, a magnitude beyond 1e±280, NaN, infinity) the result is
   -1 and the caller asks the C conversion Printf itself uses. *)
let write_g12 out x =
  let a = Float.abs x in
  if not (a >= 1e-280 && a <= 1e280) then -1
  else begin
    let e = int_of_float (Float.floor (Float.log10 a)) in
    let k = 11 - e in
    let y = if k >= 0 then a *. pow10.(k) else a /. pow10.(-k) in
    let whole = Float.floor y in
    let frac = y -. whole in
    if y < 1e11 +. 1e-3 || y >= 1e12 -. 1e-3 || Float.abs (frac -. 0.5) < 1e-3
    then -1
    else begin
      let d = int_of_float whole + if frac > 0.5 then 1 else 0 in
      (* 999999999999.5 and above round up to 1e12: one more digit of
         exponent. *)
      let d, e = if d = 1_000_000_000_000 then (100_000_000_000, e + 1) else (d, e) in
      let rest = ref d in
      for i = 11 downto 0 do
        Bytes.unsafe_set out (20 + i) (digit (!rest mod 10));
        rest := !rest / 10
      done;
      (* %g drops trailing zeros, and the point with them. *)
      let last = ref 11 in
      while Bytes.unsafe_get out (20 + !last) = '0' do
        decr last
      done;
      let p = if x < 0. then put out 0 '-' else 0 in
      if e < -4 || e >= 12 then begin
        let p = digits out p 0 1 in
        let p = if !last > 0 then digits out (put out p '.') 1 !last else p in
        let p = put out (put out p 'e') (if e < 0 then '-' else '+') in
        let ae = abs e in
        let p = if ae >= 100 then put out p (digit (ae / 100)) else p in
        put out (put out p (digit (ae / 10 mod 10))) (digit (ae mod 10))
      end
      else if e >= 0 then begin
        let p = digits out p 0 (e + 1) in
        if !last > e then digits out (put out p '.') (e + 1) (!last - e) else p
      end
      else begin
        let p = ref (put out (put out p '0') '.') in
        for _ = 1 to -e - 1 do
          p := put out !p '0'
        done;
        digits out !p 0 (!last + 1)
      end
    end
  end

let matrix_to_csv m =
  let nr, nc = Mat.dims m in
  let buf = Buffer.create (nr * nc * 8) in
  let out = Bytes.create 32 in
  for i = 0 to nr - 1 do
    for j = 0 to nc - 1 do
      if j > 0 then Buffer.add_char buf ',';
      let x = A.unsafe_get m.Mat.data ((i * nc) + j) in
      let len = write_g12 out x in
      if len >= 0 then Buffer.add_subbytes buf out 0 len
      else Buffer.add_string buf (format_float "%.12g" x)
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let is_digit c = c >= '0' && c <= '9'

(* Stores the number in [s.[a..b)] at [dst.(k)]. A plain decimal whose
   mantissa is below 2^53 and whose power of ten is within 22 is one
   exact operand times or over another, so a single rounding gives what
   [float_of_string] would (Clinger's fast path); anything else,
   [nan] and [inf] included, goes to [float_of_string] itself, which
   also raises on what it rejects. *)
let read_cell dst k s a b =
  let i = ref a in
  let neg = a < b && s.[a] = '-' in
  if neg then incr i;
  let m = ref 0 and digits = ref 0 and frac = ref 0 and exact = ref true in
  let dot = ref false in
  while !i < b && (is_digit s.[!i] || (s.[!i] = '.' && not !dot)) do
    if s.[!i] = '.' then dot := true
    else begin
      if !m >= 900_719_925_474_099 then exact := false;
      m := (!m * 10) + Char.code s.[!i] - 48;
      incr digits;
      if !dot then incr frac
    end;
    incr i
  done;
  let e = ref 0 in
  if !i < b && (s.[!i] = 'e' || s.[!i] = 'E') then begin
    incr i;
    let eneg = !i < b && s.[!i] = '-' in
    if !i < b && (s.[!i] = '-' || s.[!i] = '+') then incr i;
    if not (!i < b && is_digit s.[!i]) then exact := false;
    while !i < b && is_digit s.[!i] do
      if !e < 1000 then e := (!e * 10) + Char.code s.[!i] - 48;
      incr i
    done;
    if eneg then e := - !e
  end;
  let p = !e - !frac in
  if !exact && !i = b && !digits > 0 && p >= -22 && p <= 22 then begin
    let x = float_of_int !m in
    let x = if p >= 0 then x *. pow10.(p) else x /. pow10.(-p) in
    dst.(k) <- (if neg then -.x else x)
  end
  else dst.(k) <- float_of_string (String.sub s a (b - a))

(* One pass over the text: empty lines are skipped, every other line is
   a row of comma-separated cells. *)
let csv_to_matrix csv =
  let n = String.length csv in
  let cells = ref (Array.create_float ((n / 8) + 16)) in
  let count = ref 0 and rows = ref 0 and cols = ref 0 in
  let row_cells = ref 0 and ragged = ref false in
  let cell_start = ref 0 and line_start = ref 0 in
  let push b =
    if !count = Array.length !cells then begin
      let bigger = Array.create_float (2 * !count) in
      Array.blit !cells 0 bigger 0 !count;
      cells := bigger
    end;
    read_cell !cells !count csv !cell_start b;
    incr count;
    incr row_cells;
    cell_start := b + 1
  in
  for j = 0 to n do
    let c = if j = n then '\n' else String.unsafe_get csv j in
    if c = ',' then push j
    else if c = '\n' then begin
      if j > !line_start then begin
        push j;
        if !rows = 0 then cols := !row_cells
        else if !row_cells <> !cols then ragged := true;
        incr rows
      end;
      row_cells := 0;
      cell_start := j + 1;
      line_start := j + 1
    end
  done;
  if !ragged then invalid_arg "Mat.of_arrays: ragged";
  let m = Mat.create !rows !cols in
  let cells = !cells in
  for k = 0 to !count - 1 do
    A.unsafe_set m.Mat.data k cells.(k)
  done;
  m

let boundary_bytes = Gb_obs.Telemetry.counter ~help:"byte" "boundary_csv_bytes"

let roundtrip_matrix m =
  Gb_obs.Profile.with_ ~cat:"boundary" ~name:"export.roundtrip_matrix"
  @@ fun () ->
  let csv = matrix_to_csv m in
  Gb_obs.Telemetry.add boundary_bytes (String.length csv);
  csv_to_matrix csv
