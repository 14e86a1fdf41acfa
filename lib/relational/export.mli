(** The system boundary: copying and reformatting data between the DBMS and
    an external analytics package.

    The paper's Postgres+R and ColumnStore+R configurations export query
    results as text and re-parse them on the R side; "the data will have to
    be reformatted and copied between the two systems, which will be
    costly". These functions genuinely serialize to CSV text and parse it
    back, so the measured boundary cost is real work, not a fudge factor. *)

val matrix_to_csv : Gb_linalg.Mat.t -> string
(** One line per row, cells as [Printf.sprintf "%.12g"] writes them. *)

val csv_to_matrix : string -> Gb_linalg.Mat.t
(** Parse comma-separated rows in one pass, skipping empty lines; every
    cell reads as [float_of_string] reads it (raising [Failure] where it
    does), and rows of unequal length raise [Invalid_argument]. *)

val roundtrip_matrix : Gb_linalg.Mat.t -> Gb_linalg.Mat.t
(** Serialize + parse, i.e. ship a matrix across the boundary, counting
    its text in [boundary_csv_bytes]. *)
