(** Genomic interval primitives for the Q6 overlap-join family.

    Intervals are half-open [\[lo, hi)] on one integer coordinate axis.
    All joins return pairs [(left_id, right_id, overlap_len)] in
    canonical ascending [(left_id, right_id)] order (given id-ordered
    inputs for {!nested_loop_join}), so payloads built from any kernel
    digest identically. *)

type iv = { id : int; lo : int; hi : int }

val make : id:int -> lo:int -> hi:int -> iv
(** Raises [Invalid_argument] if [hi < lo]. *)

val of_start_len : id:int -> start:int -> len:int -> iv
(** Half-open interval [\[start, start+len)]. Raises on negative [len]. *)

val is_empty : iv -> bool
val length : iv -> int

val overlap_len : iv -> iv -> int
(** Bases shared by two half-open intervals; adjacent intervals share 0. *)

val overlaps : ?min_overlap:int -> iv -> iv -> bool
(** [overlaps a b] iff they share at least [max 1 min_overlap] bases. *)

val nested_loop_join :
  ?min_overlap:int -> iv array -> iv array -> (int * int * int) list
(** Quadratic definition of the join, which the faster kernels are
    tested against: every overlapping pair, in input order. *)

val indexed_join :
  ?min_overlap:int -> iv array -> iv array -> (int * int * int) list
(** Binary search over the right side's sorted starts, with a running
    maximum of their ends. Returns exactly {!nested_loop_join}'s list,
    in the same order, on any inputs. *)

val sweep_join :
  ?min_overlap:int -> iv array -> iv array -> (int * int * int) list
(** Sort-merge interval sweep; result sorted by [(left_id, right_id)].
    Agrees with {!nested_loop_join} (after sorting) on any inputs. *)

val default_bin_width : int

val bin_of : bin_width:int -> int -> int
(** Bin index of a coordinate; floor division, correct for negatives. *)

val bins_of : bin_width:int -> iv -> int list
(** Every bin an interval touches; empty intervals touch none. *)

val owns_pair : bin_width:int -> bin:int -> iv -> iv -> bool
(** De-duplication rule for shuffle plans: a pair is owned by exactly
    the bin containing [max lo_a lo_b]; both intervals of an
    overlapping pair touch that bin. *)

val count_pairs : (int * int * int) list -> int
