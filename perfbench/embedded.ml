(* The embedded (batch) workload: the library called in-process, the
   way a compiler links Facile and the way `facile batch` runs.  One
   operation is one chunk of machine-code blocks of one µarch:
   [Block.of_bytes] on each block, then [Engine.predict_batch
   ~mode:`Auto] on the chunk, on one default [Engine.create ()] pool. *)

open Facile_core
module Engine = Facile_engine.Engine
module Clock = Facile_obs.Clock
module Ivec = Stats.Ivec

let blocks_of (chunk : Workload.key array) =
  List.init (Array.length chunk) (fun j ->
      let k = chunk.(j) in
      Block.of_bytes k.Workload.cfg k.Workload.bytes)

let cycles_of preds = List.map (fun (p : Model.prediction) -> p.Model.cycles) preds

(* Pool creation plus one warm-up prediction per µarch, on blocks
   outside the timed set: the per-µarch tables are built lazily, so
   this keeps their construction out of the timed phase. *)
let setup warmup =
  let t0 = Clock.now_ns () in
  let engine = Engine.create () in
  let got =
    Array.map (fun k -> cycles_of (Engine.predict_batch engine ~mode:`Auto (blocks_of [| k |])))
      warmup
  in
  (engine, Clock.ns_to_s (Clock.now_ns () - t0), got)

type phase = {
  lat_ns : int array;
  done_ns : int array;
  marks : Host.marks;  (** this process, as {!Served.phase} *)
  elapsed_ns : int;
  done_ : int;                  (** chunks completed *)
  results : float list option array;  (** per chunk; [None] if it raised *)
  exhausted : bool;
}

let timed engine ~chunks ~seconds ~progress =
  let lat = Ivec.create () and done_ns = Ivec.create () in
  let results = Array.make (Array.length chunks) None in
  let t_start = Clock.now_ns () in
  let m = Host.marks ~cpu:Host.self_cpu_us ~seconds ~t_start in
  let deadline = t_start + (seconds * 1_000_000_000) in
  let i = ref 0 in
  while Clock.now_ns () < deadline && !i < Array.length chunks do
    let t0 = Clock.now_ns () in
    (match Engine.predict_batch engine ~mode:`Auto (blocks_of chunks.(!i)) with
     | preds -> results.(!i) <- Some (cycles_of preds)
     | exception _ -> ());
    let t1 = Clock.now_ns () in
    Ivec.push lat (t1 - t0);
    Ivec.push done_ns (t1 - t_start);
    progress (Ivec.length lat);
    Host.mark m;
    incr i
  done;
  let elapsed_ns = Clock.now_ns () - t_start in
  { lat_ns = Ivec.to_array lat;
    done_ns = Ivec.to_array done_ns;
    marks = Host.close_marks m;
    elapsed_ns;
    done_ = !i;
    results;
    exhausted = !i = Array.length chunks }

(* Failures among the first [n] chunks: a chunk that raised, or any
   prediction not bit-identical to its reference ([refs] holds chunk
   [c]'s at [c * chunk_size] onwards). *)
let failures ~refs (results : float list option array) n =
  let bad = ref 0 in
  for c = 0 to n - 1 do
    match results.(c) with
    | None -> incr bad
    | Some cycles ->
      if
        List.length cycles <> Workload.chunk_size
        || not
             (List.for_all2 Reply.same_bits cycles
                (Array.to_list (Array.sub refs (c * Workload.chunk_size) Workload.chunk_size)))
      then incr bad
  done;
  !bad
