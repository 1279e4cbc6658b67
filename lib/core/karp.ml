(* D_j(v), the heaviest walk of exactly j edges ending at v (starting
   anywhere: D_0 = 0), sits at [a.(n*n + j*n + v)], -1 when there is
   none; weights are non-negative, so every walk weighs at least 0.
   Karp (1978): the maximum cycle mean is
     max over v with D_n(v) >= 0 of
       min over j < n with D_j(v) >= 0 of (D_n(v) - D_j(v)) / (n - j).
   Candidates are compared exactly as fractions; the caller divides
   the winner. *)
let max_cycle_mean ~n a =
  let nn = n * n in
  for v = 0 to n - 1 do
    a.(nn + v) <- 0
  done;
  for j = 1 to n do
    let prev = nn + ((j - 1) * n) and cur = nn + (j * n) in
    for v = 0 to n - 1 do
      let best = ref (-1) in
      for u = 0 to n - 1 do
        let w = a.((u * n) + v) and du = a.(prev + u) in
        if w >= 0 && du >= 0 && du + w > !best then best := du + w
      done;
      a.(cur + v) <- !best
    done
  done;
  (* the best (max over v) of the worst (min over j) ratio so far; a
     ratio for some v may be negative, the maximum never is *)
  let cyclic = ref false and num = ref 0 and den = ref 1 in
  for v = 0 to n - 1 do
    let dn = a.(nn + nn + v) in
    if dn >= 0 then begin
      (* j = 0 first: D_0(v) = 0 always counts *)
      let vnum = ref dn and vden = ref n in
      for j = 1 to n - 1 do
        let dj = a.(nn + (j * n) + v) in
        if dj >= 0 && (dn - dj) * !vden < !vnum * (n - j) then begin
          vnum := dn - dj;
          vden := n - j
        end
      done;
      if (not !cyclic) || !vnum * !den > !num * !vden then begin
        cyclic := true;
        num := !vnum;
        den := !vden
      end
    end
  done;
  if !cyclic then begin
    a.(nn) <- !num;
    !den
  end
  else 0
