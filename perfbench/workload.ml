(* The benchmark's inputs: (µarch, machine-code) keys drawn from the
   BHive-style corpus, the operation streams built from them, and the
   reference prediction of every key.  Everything here is a pure
   function of the workload seed, so one seed gives one byte-identical
   request stream. *)

open Facile_uarch
open Facile_core
module Suite = Facile_bhive.Suite
module Prng = Facile_bhive.Prng

type key = { cfg : Config.t; bytes : string }

let archs = Array.of_list Config.all
let n_archs = Array.length archs

(* The corpus comes in parts of [part_cases] cases: part [p] is
   [Suite.corpus] for a seed derived from the workload seed and [p]
   (part 0 for the workload seed itself), and each case contributes its
   straight-line BHive_U body, then its branch-terminated BHive_L loop.
   Parts are independent, so a long stream is generated two parts at a
   time on two domains, with little garbage alive at once. *)
let part_cases = 1024

let part_seed seed p = seed lxor (p * 0x1e3779b97f4a7c15)

let part ~seed p =
  let encode insts = fst (Facile_x86.Encode.encode_block insts) in
  Suite.corpus ~seed:(part_seed seed p) ~size:part_cases ()
  |> List.concat_map (fun (c : Suite.case) -> [ encode c.Suite.body; encode c.Suite.loop ])

(* The first [n] distinct blocks of the parts, in part order: they do
   not depend on [n], so a longer stream extends a shorter one. *)
let distinct_blocks ~seed n =
  let seen = Hashtbl.create (2 * n) in
  let out = Array.make n "" in
  let k = ref 0 in
  let take =
    List.iter (fun bytes ->
        if !k < n && not (Hashtbl.mem seen bytes) then begin
          Hashtbl.add seen bytes ();
          out.(!k) <- bytes;
          incr k
        end)
  in
  let p = ref 0 in
  while !k < n do
    let here = !p in
    if n - !k > part_cases then begin
      let d = Domain.spawn (fun () -> part ~seed (here + 1)) in
      let a = try part ~seed here with e -> ignore (Domain.join d); raise e in
      take a;
      take (Domain.join d);
      p := here + 2
    end
    else begin
      take (part ~seed here);
      p := here + 1
    end
  done;
  out

(* [n] µarch indices; every aligned group of [n_archs] is a seeded
   permutation of all of them, so traffic spreads evenly over the
   µarchs without a fixed cyclic order. *)
let arch_sequence rng n =
  let perm = Array.init n_archs Fun.id in
  Array.init n (fun i ->
      if i mod n_archs = 0 then
        for j = n_archs - 1 downto 1 do
          let r = Prng.int rng (j + 1) in
          let x = perm.(j) in
          perm.(j) <- perm.(r);
          perm.(r) <- x
        done;
      perm.(i mod n_archs))

(* Seeds of the independent random streams derived from one workload
   seed. *)
let arch_seed seed = seed lxor 0x2545f491
let draw_seed seed = seed lxor 0x6c8e9cf5

let hex_of_bytes s =
  let digits = "0123456789abcdef" in
  String.init
    (2 * String.length s)
    (fun i ->
      let b = Char.code s.[i / 2] in
      digits.[if i land 1 = 0 then b lsr 4 else b land 15])

let key cfg bytes = { cfg; bytes }
let hex k = hex_of_bytes k.bytes

(* Warm-up keys: the corpus's first [n_archs] distinct blocks, block
   [a] on µarch [a].  Timed keys never use these blocks. *)
let warmup ~seed =
  let blocks = distinct_blocks ~seed n_archs in
  Array.init n_archs (fun a -> key archs.(a) blocks.(a))

(* [chunks ~seed ~count ~size]: [count] chunks of [size] keys, each
   chunk of one µarch and every key on a block of its own (after the
   warm-up blocks), so no block recurs, on any µarch; the first
   [n_archs] chunks cover every µarch once. *)
let chunks ~seed ~count ~size =
  let blocks = distinct_blocks ~seed (n_archs + (count * size)) in
  let seq = arch_sequence (Prng.create (arch_seed seed)) count in
  Array.init count (fun c ->
      Array.init size (fun j -> key archs.(seq.(c)) blocks.(n_archs + (c * size) + j)))

let keys ~seed n = Array.map (fun c -> c.(0)) (chunks ~seed ~count:n ~size:1)

(* One NDJSON request line of the wire protocol (mode defaults to
   "auto" on the server, like every other flag the benchmark leaves
   alone). *)
let request_line ~id k =
  String.concat ""
    [ "{\"id\":"; string_of_int id; ",\"arch\":\""; k.cfg.Config.abbrev;
      "\",\"hex\":\""; hex k; "\"}\n" ]

(* The reference each served or batched prediction is checked against:
   [Model.predict] on the same bytes for the same µarch. *)
let reference k = (Model.predict (Block.of_bytes k.cfg k.bytes)).Model.cycles

(* [fill_references out keys ~lo ~hi]: the references of keys [lo,
   hi) into [out], on two domains (the keys are independent).  Never
   called during a timed phase. *)
let fill_references out keys ~lo ~hi =
  let fill lo hi =
    for i = lo to hi - 1 do
      out.(i) <- reference keys.(i)
    done
  in
  if hi > lo then begin
    let mid = lo + ((hi - lo) / 2) in
    let d = Domain.spawn (fun () -> fill mid hi) in
    Fun.protect ~finally:(fun () -> Domain.join d) (fun () -> fill lo mid)
  end

let references keys =
  let out = Array.make (Array.length keys) Float.nan in
  fill_references out keys ~lo:0 ~hi:(Array.length keys);
  out

(* ----- the three workloads' streams ----- *)

(* serve_hit: a working set that spans every µarch and stays far below
   the server's 65,536-entry default cache, so no shard evicts; the
   timed requests are seeded-uniform draws from it.  Every key has its
   own block, so the mix of block sizes varies little between seeds.
   The set's first [n_archs] keys cover every µarch and double as
   warm-up requests. *)
type hit = { set : key array; draws : int array }

let hit_set_size = 8192

let hit ~seed ~max_ops =
  let rng = Prng.create (draw_seed seed) in
  { set = keys ~seed hit_set_size;
    draws = Array.init max_ops (fun _ -> Prng.int rng hit_set_size) }

(* serve_miss: one fresh key per timed request, on a block no other
   request uses. *)
let miss ~seed ~max_ops = keys ~seed max_ops

(* batch: one operation is a chunk of [chunk_size] blocks of one
   µarch; no block recurs in the run. *)
let chunk_size = 64

let batch_chunks ~seed ~max_ops = chunks ~seed ~count:max_ops ~size:chunk_size
