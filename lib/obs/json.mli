(** Minimal JSON value type, parser and serializer — shared by the Chrome
    trace importer ({!Trace_export}) and the bench-baseline pipeline
    ({!Bench_json}). Dependency-free; strings are byte strings, UTF-8
    where the input is. *)

type t =
  | Null
  | JBool of bool
  | Num of float
  | JStr of string
  | Arr of t list
  | Obj of (string * t) list

val escape : string -> string
(** JSON string-body escaping (quotes, backslashes, control chars). *)

val number_to_string : float -> string
(** Integers render without a decimal point; other finite floats keep 12
    significant digits (enough to round-trip benchmark timings while
    staying diff-readable), written as an integer when those digits
    read back as one; non-finite values render as [null]. *)

val to_string : t -> string
(** Compact single-line serialization. [parse (to_string v)] succeeds for
    every [v] that contains no non-finite number. *)

val parse : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries an offset-annotated
    message. Rejects trailing garbage and numbers outside the finite
    float range (such as [1e400]). A [\u] escape takes exactly four hex
    digits and decodes to UTF-8, a surrogate pair to one character; a
    lone surrogate is an [Error]. Objects keep their members in document
    order, duplicate keys included, so {!member} returns the first. *)

(** {1 Tree accessors} — for consumers walking parsed documents. *)

val member : string -> t -> t option
val to_str : t -> string option
val to_num : t -> float option
val to_arr : t -> t list option
