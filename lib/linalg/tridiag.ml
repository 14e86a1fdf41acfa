module A = Bigarray.Array1

let hypot2 a b = Float.hypot a b

(* Classic tql2 (EISPACK) adapted to OCaml: QL with implicit shifts,
   accumulating the rotations into [zt] when eigenvectors are wanted.
   [zt] is the eigenvector matrix transposed (row i holds column i), so
   a rotation of columns i and i+1 updates two contiguous rows; each
   element sees the same operations as in the column layout. *)
let tql2 d e zt =
  let n = Array.length d in
  if n = 0 then ()
  else begin
    let e = Array.append e [| 0. |] in
    for l = 0 to n - 1 do
      let iter = ref 0 in
      let continue_outer = ref true in
      while !continue_outer do
        (* Find a small subdiagonal element. *)
        let m = ref l in
        let found = ref false in
        while (not !found) && !m < n - 1 do
          let dd = Float.abs d.(!m) +. Float.abs d.(!m + 1) in
          if Float.abs e.(!m) <= epsilon_float *. dd then found := true
          else incr m
        done;
        if !m = l then continue_outer := false
        else begin
          incr iter;
          if !iter > 50 then failwith "Tridiag: no convergence";
          let m = !m in
          let g = (d.(l + 1) -. d.(l)) /. (2. *. e.(l)) in
          let r = hypot2 g 1. in
          let g' =
            d.(m) -. d.(l)
            +. (e.(l) /. (g +. (if g >= 0. then Float.abs r else -.Float.abs r)))
          in
          let s = ref 1. and c = ref 1. and p = ref 0. in
          let g = ref g' in
          (try
             for i = m - 1 downto l do
               let f = !s *. e.(i) in
               let b = !c *. e.(i) in
               let r = hypot2 f !g in
               e.(i + 1) <- r;
               if r = 0. then begin
                 d.(i + 1) <- d.(i + 1) -. !p;
                 e.(m) <- 0.;
                 raise Exit
               end;
               s := f /. r;
               c := !g /. r;
               let g2 = d.(i + 1) -. !p in
               let r2 = ((d.(i) -. g2) *. !s) +. (2. *. !c *. b) in
               p := !s *. r2;
               d.(i + 1) <- g2 +. !p;
               g := (!c *. r2) -. b;
               (match zt with
               | None -> ()
               | Some zt ->
                 let nn = zt.Mat.cols and zd = zt.Mat.data in
                 let s = !s and c = !c in
                 let row_i = i * nn in
                 let row_i1 = row_i + nn in
                 for k = 0 to nn - 1 do
                   let f = A.unsafe_get zd (row_i1 + k) in
                   let zik = A.unsafe_get zd (row_i + k) in
                   A.unsafe_set zd (row_i1 + k) ((s *. zik) +. (c *. f));
                   A.unsafe_set zd (row_i + k) ((c *. zik) -. (s *. f))
                 done)
             done;
             d.(l) <- d.(l) -. !p;
             e.(l) <- !g;
             e.(m) <- 0.
           with Exit -> ())
        end
      done
    done
  end

(* Column c of the result is eigenvector idx.(c), i.e. row idx.(c) of
   the transposed accumulator. *)
let sort_desc d zt =
  let n = Array.length d in
  let idx = Gb_util.Order.argsort ~descending:true d in
  let values = Array.map (fun i -> d.(i)) idx in
  let vectors =
    match zt with
    | None -> Mat.create 0 0
    | Some zt ->
      let out = Mat.create n n in
      let src = zt.Mat.data and dst = out.Mat.data in
      for c = 0 to n - 1 do
        let row = idx.(c) * n in
        for r = 0 to n - 1 do
          A.unsafe_set dst ((r * n) + c) (A.unsafe_get src (row + r))
        done
      done;
      out
  in
  (values, vectors)

let check diag offdiag =
  if Array.length offdiag <> max 0 (Array.length diag - 1) then
    invalid_arg "Tridiag: offdiag must have length (n-1)"

let eigen diag offdiag =
  check diag offdiag;
  let n = Array.length diag in
  let d = Array.copy diag and e = Array.copy offdiag in
  (* The identity is its own transpose. *)
  let zt = Mat.identity n in
  tql2 d e (Some zt);
  sort_desc d (Some zt)

let eigenvalues diag offdiag =
  check diag offdiag;
  let d = Array.copy diag and e = Array.copy offdiag in
  tql2 d e None;
  let values, _ = sort_desc d None in
  values
