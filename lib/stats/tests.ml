let benjamini_hochberg results =
  let arr = Array.of_list results in
  let m = Array.length arr in
  if m = 0 then []
  else begin
    Array.sort (fun (_, p1) (_, p2) -> Float.compare p1 p2) arr;
    (* q_i = min over j >= i of p_j * m / j (enforcing monotonicity). *)
    let q = Array.make m 0. in
    let running = ref 1. in
    for i = m - 1 downto 0 do
      let _, p = arr.(i) in
      let candidate = p *. float_of_int m /. float_of_int (i + 1) in
      running := Float.min !running candidate;
      q.(i) <- !running
    done;
    Array.to_list (Array.mapi (fun i (id, _) -> (id, q.(i))) arr)
  end
