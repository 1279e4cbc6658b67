(* Per-computation scratch buffers for the prediction hot path and
   block analysis.

   Every component predictor used to allocate its working arrays per
   call; the arena keeps one growable buffer per use site instead.  An
   arena belongs to one running computation at a time: [with_] takes a
   free one (or builds one when none is free) and gives it back when
   the computation returns or raises.  Scratch owned by the domain
   instead would be shared by every system thread of that domain, and
   OCaml may switch threads at any allocation in the middle of a
   prediction.  Buffers only grow; callers must treat the contents as
   garbage on entry and not hold a buffer across a call into another
   component that uses the same field. *)

type t = {
  (* Predec: per-16-byte-chunk counters *)
  mutable predec_last : int array;
  mutable predec_opc : int array;
  mutable predec_lcp : int array;
  (* Dec: per-iteration complex-decoder counts, first-decoder table *)
  mutable dec_complex : int array;
  mutable dec_first : int array;
  (* Ports: deduplicated masks and their pairwise unions *)
  mutable ports_dedup : Facile_uarch.Port.t array;
  mutable ports_pairs : Facile_uarch.Port.t array;
  (* Ports: multiplicity of each deduplicated mask *)
  mutable ports_cnt : int array;
  (* Precedence: per resource code, its loop-carried index and its
     current producer; then the max-plus matrix, Karp's table and one
     path vector per logical *)
  mutable prec_codes : int array;
  mutable prec_paths : int array;
  (* Block analysis: per-logical values, read and write codes and port
     sets of the block being built, before the copy to exact size *)
  mutable blk_log : int array;
  mutable blk_rcode : int array;
  mutable blk_wcode : int array;
  mutable blk_ports : Facile_uarch.Port.t array;
}

let create () =
  { predec_last = [||];
    predec_opc = [||];
    predec_lcp = [||];
    dec_complex = [||];
    dec_first = [||];
    ports_dedup = [||];
    ports_pairs = [||];
    ports_cnt = [||];
    prec_codes = [||];
    prec_paths = [||];
    blk_log = [||];
    blk_rcode = [||];
    blk_wcode = [||];
    blk_ports = [||] }

(* Arenas not owned by any computation.  A lock-free stack of immutable
   cons cells: every push allocates a fresh cell, so a compare-and-set
   can never succeed against a cell that was popped and pushed back in
   between (no ABA).  It holds at most as many arenas as computations
   ever ran at once. *)
let free : t list Atomic.t = Atomic.make []

let rec acquire () =
  match Atomic.get free with
  | [] -> create ()
  | a :: rest as l -> if Atomic.compare_and_set free l rest then a else acquire ()

let rec release a =
  let l = Atomic.get free in
  if not (Atomic.compare_and_set free l (a :: l)) then release a

let with_ f =
  let a = acquire () in
  match f a with
  | v ->
    release a;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    release a;
    Printexc.raise_with_backtrace e bt

(* Round the requested size up so repeated growth is amortized. *)
let cap n =
  let c = ref 16 in
  while !c < n do
    c := !c * 2
  done;
  !c

let ints buf n = if Array.length buf >= n then buf else Array.make (cap n) 0

let ports buf n =
  if Array.length buf >= n then buf
  else Array.make (cap n) Facile_uarch.Port.empty
