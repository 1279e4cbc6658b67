(* Mutation fixture for the dls family: scratch kept in domain-local
   state.  Two system threads of one domain get the same buffer, and a
   thread switch in the middle of [sum_squares] lets the other thread
   overwrite it.  Expected finding: dls-outside-arena. *)

let scratch = Domain.DLS.new_key (fun () -> Array.make 64 0)

let sum_squares xs =
  let buf = Domain.DLS.get scratch in
  List.iteri (fun i x -> buf.(i) <- x * x) xs;
  Array.fold_left ( + ) 0 (Array.sub buf 0 (List.length xs))
