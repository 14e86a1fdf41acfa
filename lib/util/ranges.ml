(* Genomic interval primitives shared by every Q6 physical plan.

   Intervals are half-open [lo, hi) on a single integer coordinate axis.
   Every join here returns pairs in the same canonical order — ascending
   (left index, right index) — so engine payloads built from any of
   these kernels digest identically. *)

type iv = { id : int; lo : int; hi : int }

let make ~id ~lo ~hi =
  if hi < lo then invalid_arg "Ranges.make: hi < lo";
  { id; lo; hi }

let of_start_len ~id ~start ~len =
  if len < 0 then invalid_arg "Ranges.of_start_len: negative length";
  { id; lo = start; hi = start + len }

let is_empty iv = iv.hi <= iv.lo
let length iv = max 0 (iv.hi - iv.lo)

(* Overlap length of two half-open intervals; 0 when disjoint or merely
   adjacent ([0,5) and [5,9) share no base). *)
let overlap_len a b = max 0 (min a.hi b.hi - max a.lo b.lo)
let overlaps ?(min_overlap = 1) a b = overlap_len a b >= max 1 min_overlap

(* The join's definition: every pair, quadratic, no cleverness.  The
   tests and the q6 bench compare every faster kernel against it.
   Output is ascending (position in [xs], position in [ys]) which is the
   canonical ordering when both inputs are given in id order. *)
let nested_loop_join ?(min_overlap = 1) xs ys =
  let out = ref [] in
  for i = Array.length xs - 1 downto 0 do
    let row = ref [] in
    for j = Array.length ys - 1 downto 0 do
      let len = overlap_len xs.(i) ys.(j) in
      if len >= max 1 min_overlap then
        row := (xs.(i).id, ys.(j).id, len) :: !row
    done;
    out := !row @ !out
  done;
  !out

(* The indexed join, as R's IRanges and data.table answer it: sort the
   right starts once and keep a running maximum of their ends.  For
   each left interval, binary-search the last start before its end,
   then walk back while the running maximum still passes its start;
   every overlapping right interval lies on that walk.  Each left
   interval's matches are emitted in right input order, so the result
   is [nested_loop_join]'s list, element for element.
   O(m log m + n log m + walked). *)
let indexed_join ?(min_overlap = 1) xs ys =
  let need = max 1 min_overlap in
  let m = Array.length ys in
  let order = Array.init m Fun.id in
  Array.sort (fun a b -> Int.compare ys.(a).lo ys.(b).lo) order;
  let starts = Array.map (fun j -> ys.(j).lo) order in
  let reach = Array.map (fun j -> ys.(j).hi) order in
  for k = 1 to m - 1 do
    reach.(k) <- max reach.(k - 1) reach.(k)
  done;
  (* How many sorted starts lie below [hi]. *)
  let below hi =
    let lo = ref 0 and up = ref m in
    while !lo < !up do
      let mid = (!lo + !up) lsr 1 in
      if starts.(mid) < hi then lo := mid + 1 else up := mid
    done;
    !lo
  in
  let out = ref [] in
  for i = Array.length xs - 1 downto 0 do
    let x = xs.(i) in
    let hits = ref [] in
    let k = ref (below x.hi - 1) in
    while !k >= 0 && reach.(!k) > x.lo do
      let j = order.(!k) in
      if overlap_len x ys.(j) >= need then hits := j :: !hits;
      decr k
    done;
    (* Prepending in descending right position leaves them ascending. *)
    List.iter
      (fun j -> out := (x.id, ys.(j).id, overlap_len x ys.(j)) :: !out)
      (List.sort (fun a b -> Int.compare b a) !hits)
  done;
  !out

(* Sort-merge interval sweep.  Both sides are sorted by [lo]; for each
   left interval we drop right intervals that end at-or-before its start
   (they can never overlap anything later either, because left starts
   are non-decreasing), then scan forward until right starts pass the
   left end.  O((n + m) log(n + m) + output).

   The active list is kept as a simple growable buffer; dead entries are
   compacted in place, preserving lo-order.  Matches within one left
   interval are emitted sorted by id so the result is canonical after a
   final sort by (left id, right id). *)
let sweep_join ?(min_overlap = 1) xs ys =
  let need = max 1 min_overlap in
  let xs = Array.copy xs and ys = Array.copy ys in
  let by_lo a b =
    let c = Int.compare a.lo b.lo in
    if c <> 0 then c else Int.compare a.id b.id
  in
  Array.sort by_lo xs;
  Array.sort by_lo ys;
  let active = ref [||] and n_active = ref 0 in
  let push iv =
    if !n_active = Array.length !active then begin
      let grown = Array.make (max 8 (2 * !n_active)) iv in
      Array.blit !active 0 grown 0 !n_active;
      active := grown
    end;
    !active.(!n_active) <- iv;
    incr n_active
  in
  let out = ref [] in
  let j = ref 0 in
  let m = Array.length ys in
  Array.iter
    (fun x ->
      (* Admit every right interval that starts before this left ends. *)
      while !j < m && ys.(!j).lo < x.hi do
        push ys.(!j);
        incr j
      done;
      (* Compact: drop actives that end at-or-before this left's start;
         left starts only grow, so they are dead for good. *)
      let keep = ref 0 in
      for k = 0 to !n_active - 1 do
        let y = !active.(k) in
        if y.hi > x.lo then begin
          !active.(!keep) <- y;
          incr keep
        end
      done;
      n_active := !keep;
      let matches = ref [] in
      for k = 0 to !n_active - 1 do
        let y = !active.(k) in
        let len = overlap_len x y in
        if len >= need then matches := (x.id, y.id, len) :: !matches
      done;
      out := List.rev_append !matches !out)
    xs;
  List.sort
    (fun (a1, b1, _) (a2, b2, _) ->
      let c = Int.compare a1 a2 in
      if c <> 0 then c else Int.compare b1 b2)
    !out

(* Genomic binning for the shuffle plans: fixed-width bins over the
   coordinate axis.  An interval lands in every bin it touches; a pair
   is counted exactly once, by the bin holding the larger of the two
   starts — both intervals of an overlapping pair necessarily touch
   that bin. *)
let default_bin_width = 65_536

let bin_of ~bin_width pos =
  if bin_width <= 0 then invalid_arg "Ranges.bin_of: bin_width";
  if pos < 0 then -1 - ((-1 - pos) / bin_width) else pos / bin_width

let bins_of ~bin_width iv =
  if is_empty iv then []
  else begin
    let first = bin_of ~bin_width iv.lo in
    let last = bin_of ~bin_width (iv.hi - 1) in
    List.init (last - first + 1) (fun k -> first + k)
  end

let owns_pair ~bin_width ~bin a b = bin_of ~bin_width (max a.lo b.lo) = bin

let count_pairs pairs = List.length pairs
