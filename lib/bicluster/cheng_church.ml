module Mat = Gb_linalg.Mat
module A = Bigarray.Array1

type bicluster = { rows : int array; cols : int array; msr : float }

type config = {
  delta : float;
  alpha : float;
  n_clusters : int;
  min_rows : int;
  min_cols : int;
  seed : int64;
}

let default_config =
  {
    delta = 0.05;
    alpha = 1.2;
    n_clusters = 4;
    min_rows = 2;
    min_cols = 2;
    seed = 0xB1C1L;
  }

(* State over boolean membership masks; means are recomputed per sweep,
   which keeps each sweep O(m n) and the code obviously correct. The
   O(m n) loops run over ascending index arrays of the members, built
   once per pass, and read [m.data] directly. *)
type state = {
  m : Mat.t;
  row_in : bool array;
  col_in : bool array;
  mutable nrows : int;
  mutable ncols : int;
}

(* Indices where [mask] is [want], ascending. *)
let indices want mask =
  let count = ref 0 in
  Array.iter (fun b -> if b = want then incr count) mask;
  let out = Array.make !count 0 in
  let p = ref 0 in
  Array.iteri
    (fun i b ->
      if b = want then begin
        out.(!p) <- i;
        incr p
      end)
    mask;
  out

let members mask = indices true mask

type sweep = {
  h : float; (* overall MSR *)
  row_means : float array;
  col_means : float array;
  all_mean : float;
  row_msr : float array;
  col_msr : float array;
}

let sweep st =
  let nr, nc = Mat.dims st.m in
  let data = st.m.Mat.data in
  let rows = members st.row_in and cols = members st.col_in in
  let ncols_in = Array.length cols in
  let row_means = Array.make nr 0. in
  let col_means = Array.make nc 0. in
  let total = ref 0. in
  for a = 0 to Array.length rows - 1 do
    let i = rows.(a) in
    let base = i * nc in
    let rsum = ref 0. in
    for b = 0 to ncols_in - 1 do
      let j = Array.unsafe_get cols b in
      let v = A.unsafe_get data (base + j) in
      rsum := !rsum +. v;
      col_means.(j) <- col_means.(j) +. v;
      total := !total +. v
    done;
    row_means.(i) <- !rsum
  done;
  let fr = float_of_int st.ncols and fc = float_of_int st.nrows in
  for i = 0 to nr - 1 do
    if st.row_in.(i) then row_means.(i) <- row_means.(i) /. fr
  done;
  for j = 0 to nc - 1 do
    if st.col_in.(j) then col_means.(j) <- col_means.(j) /. fc
  done;
  let all_mean = !total /. (fr *. fc) in
  let row_msr = Array.make nr 0. in
  let col_msr = Array.make nc 0. in
  let acc = ref 0. in
  for a = 0 to Array.length rows - 1 do
    let i = rows.(a) in
    let base = i * nc and rm = row_means.(i) in
    let rsum = ref 0. in
    for b = 0 to ncols_in - 1 do
      let j = Array.unsafe_get cols b in
      let r = A.unsafe_get data (base + j) -. rm -. col_means.(j) +. all_mean in
      let r2 = r *. r in
      rsum := !rsum +. r2;
      col_msr.(j) <- col_msr.(j) +. r2;
      acc := !acc +. r2
    done;
    row_msr.(i) <- !rsum
  done;
  for i = 0 to nr - 1 do
    if st.row_in.(i) then row_msr.(i) <- row_msr.(i) /. fr
  done;
  for j = 0 to nc - 1 do
    if st.col_in.(j) then col_msr.(j) <- col_msr.(j) /. fc
  done;
  let h = !acc /. (fr *. fc) in
  { h; row_means; col_means; all_mean; row_msr; col_msr }

let mean_squared_residue m rows cols =
  if Array.length rows = 0 || Array.length cols = 0 then 0.
  else begin
    let nr, nc = Mat.dims m in
    let row_in = Array.make nr false and col_in = Array.make nc false in
    Array.iter (fun i -> row_in.(i) <- true) rows;
    Array.iter (fun j -> col_in.(j) <- true) cols;
    let st =
      { m; row_in; col_in; nrows = Array.length rows; ncols = Array.length cols }
    in
    (sweep st).h
  end

(* Phase 1: multiple node deletion — drop every row/col whose residue
   exceeds alpha * H in one pass (only applied while the dimension is
   large enough for the pass to pay off). *)
let multiple_deletion cfg st =
  let progressed = ref true in
  let s = ref (sweep st) in
  while !s.h > cfg.delta && !progressed do
    Gb_util.Deadline.Ambient.checkpoint ();
    progressed := false;
    if st.nrows > 100 then begin
      let cutoff = cfg.alpha *. !s.h in
      for i = 0 to Array.length st.row_in - 1 do
        if st.row_in.(i) && !s.row_msr.(i) > cutoff && st.nrows > cfg.min_rows
        then begin
          st.row_in.(i) <- false;
          st.nrows <- st.nrows - 1;
          progressed := true
        end
      done
    end;
    if !progressed then s := sweep st;
    if st.ncols > 100 then begin
      let cutoff = cfg.alpha *. !s.h in
      let removed = ref false in
      for j = 0 to Array.length st.col_in - 1 do
        if st.col_in.(j) && !s.col_msr.(j) > cutoff && st.ncols > cfg.min_cols
        then begin
          st.col_in.(j) <- false;
          st.ncols <- st.ncols - 1;
          removed := true
        end
      done;
      if !removed then begin
        progressed := true;
        s := sweep st
      end
    end
  done;
  !s

(* Phase 2: single node deletion — remove the single worst row or column
   until the residue target is met. *)
let single_deletion cfg st s0 =
  let s = ref s0 in
  let continue_ = ref true in
  while !s.h > cfg.delta && !continue_ do
    Gb_util.Deadline.Ambient.checkpoint ();
    let worst_row = ref (-1) and worst_row_v = ref neg_infinity in
    if st.nrows > cfg.min_rows then
      for i = 0 to Array.length st.row_in - 1 do
        if st.row_in.(i) && !s.row_msr.(i) > !worst_row_v then begin
          worst_row := i;
          worst_row_v := !s.row_msr.(i)
        end
      done;
    let worst_col = ref (-1) and worst_col_v = ref neg_infinity in
    if st.ncols > cfg.min_cols then
      for j = 0 to Array.length st.col_in - 1 do
        if st.col_in.(j) && !s.col_msr.(j) > !worst_col_v then begin
          worst_col := j;
          worst_col_v := !s.col_msr.(j)
        end
      done;
    if !worst_row >= 0 && !worst_row_v >= !worst_col_v then begin
      st.row_in.(!worst_row) <- false;
      st.nrows <- st.nrows - 1;
      s := sweep st
    end
    else if !worst_col >= 0 then begin
      st.col_in.(!worst_col) <- false;
      st.ncols <- st.ncols - 1;
      s := sweep st
    end
    else continue_ := false
  done;
  !s

(* Phase 3: node addition — re-admit columns/rows whose residue against the
   current bicluster does not exceed its MSR. *)
let node_addition st s0 =
  let nr, nc = Mat.dims st.m in
  let data = st.m.Mat.data in
  let s = ref s0 in
  let changed = ref true in
  while !changed do
    Gb_util.Deadline.Ambient.checkpoint ();
    changed := false;
    (* Column addition. A candidate's decision reads only the row set,
       the sweep's row means, overall mean and residue — none of which
       this pass changes — so the pass runs rows in the outer loop with
       one accumulator per candidate column, and each column's sums
       still run over the rows in ascending order. *)
    let sw = !s in
    let rows = members st.row_in and cand = indices false st.col_in in
    let nk = Array.length cand in
    let cms = Array.make nk 0. and accs = Array.make nk 0. in
    for a = 0 to Array.length rows - 1 do
      let base = rows.(a) * nc in
      for c = 0 to nk - 1 do
        cms.(c) <- cms.(c) +. A.unsafe_get data (base + Array.unsafe_get cand c)
      done
    done;
    for c = 0 to nk - 1 do
      cms.(c) <- cms.(c) /. float_of_int st.nrows
    done;
    for a = 0 to Array.length rows - 1 do
      let i = rows.(a) in
      let base = i * nc and rm = sw.row_means.(i) in
      for c = 0 to nk - 1 do
        let r =
          A.unsafe_get data (base + Array.unsafe_get cand c) -. rm -. cms.(c)
          +. sw.all_mean
        in
        accs.(c) <- accs.(c) +. (r *. r)
      done
    done;
    for c = 0 to nk - 1 do
      let e = accs.(c) /. float_of_int st.nrows in
      if e <= sw.h then begin
        st.col_in.(cand.(c)) <- true;
        st.ncols <- st.ncols + 1;
        changed := true
      end
    done;
    if !changed then s := sweep st;
    (* Row addition: rows are contiguous, so each candidate row is read
       directly over the (now fixed) column set. *)
    let sw = !s in
    let cols = members st.col_in in
    let row_changed = ref false in
    for i = 0 to nr - 1 do
      if not st.row_in.(i) then begin
        let base = i * nc in
        let acc = ref 0. and rm = ref 0. in
        for b = 0 to Array.length cols - 1 do
          rm := !rm +. A.unsafe_get data (base + Array.unsafe_get cols b)
        done;
        let rm = !rm /. float_of_int st.ncols in
        for b = 0 to Array.length cols - 1 do
          let j = Array.unsafe_get cols b in
          let r = A.unsafe_get data (base + j) -. rm -. sw.col_means.(j) +. sw.all_mean in
          acc := !acc +. (r *. r)
        done;
        let d = !acc /. float_of_int st.ncols in
        if d <= sw.h then begin
          st.row_in.(i) <- true;
          st.nrows <- st.nrows + 1;
          row_changed := true
        end
      end
    done;
    if !row_changed then begin
      changed := true;
      s := sweep st
    end
  done;
  !s

let data_range m =
  let lo = ref infinity and hi = ref neg_infinity in
  let data = m.Mat.data in
  for p = 0 to (m.Mat.rows * m.Mat.cols) - 1 do
    let v = A.unsafe_get data p in
    if v < !lo then lo := v;
    if v > !hi then hi := v
  done;
  if !lo > !hi then (0., 1.) else (!lo, !hi)

let run ?(config = default_config) input =
  let nr, nc = Mat.dims input in
  if nr < config.min_rows || nc < config.min_cols then []
  else begin
    let work = Mat.copy input in
    let rng = Gb_util.Prng.create config.seed in
    let lo, hi = data_range input in
    let found = ref [] in
    (try
       for _ = 1 to config.n_clusters do
         let st =
           {
             m = work;
             row_in = Array.make nr true;
             col_in = Array.make nc true;
             nrows = nr;
             ncols = nc;
           }
         in
         let s = multiple_deletion config st in
         let s = single_deletion config st s in
         let s = node_addition st s in
         let rows = members st.row_in and cols = members st.col_in in
         if Array.length rows < config.min_rows
            || Array.length cols < config.min_cols
         then raise Exit;
         found := { rows; cols; msr = s.h } :: !found;
         (* Mask the found bicluster with uniform noise so the next search
            discovers different structure. *)
         let width = Float.max 1e-9 (hi -. lo) in
         Array.iter
           (fun i ->
             Array.iter
               (fun j ->
                 A.unsafe_set work.Mat.data ((i * nc) + j)
                   (lo +. Gb_util.Prng.float rng width))
               cols)
           rows
       done
     with Exit -> ());
    List.rev !found
  end
