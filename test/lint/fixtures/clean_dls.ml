(* Clean twin of bad_dls.ml: the buffer belongs to one call, taken from
   the per-computation arena.  Expected: no findings. *)

let sum_squares xs =
  Arena.with_ (fun a ->
      let buf = Arena.ints a.Arena.dec_first (List.length xs) in
      a.Arena.dec_first <- buf;
      List.iteri (fun i x -> buf.(i) <- x * x) xs;
      Array.fold_left ( + ) 0 (Array.sub buf 0 (List.length xs)))
