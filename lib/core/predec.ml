open Facile_x86

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let simple (b : Block.t) = float_of_int b.Block.len /. 16.0

(* resolved once: recording is lock-free, only the first lookup locks *)
let span = Facile_obs.Obs.histogram "model.predec"

(* Shared cycle computation over the per-chunk counters: the byte walk
   differs between the fast (array) and reference (list) paths, the
   arithmetic does not. *)
let total_cycles ~width ~n ~u last_count opcode_count lcp_count =
  let cyc_nlcp bi =
    let c = last_count.(bi) + opcode_count.(bi) in
    (c + width - 1) / width
  in
  let total = ref 0 in
  for bi = 0 to n - 1 do
    let prev = (bi + n - 1) mod n in
    let lcp_cycles =
      max 0 ((3 * lcp_count.(bi)) - (cyc_nlcp prev - 1))
    in
    total := !total + cyc_nlcp bi + lcp_cycles
  done;
  float_of_int !total /. float_of_int u

let params ~mode (b : Block.t) =
  let l = b.Block.len in
  let width = b.Block.cfg.Facile_uarch.Config.predecode_width in
  let u =
    match mode with
    | `Unrolled -> 16 / gcd l 16
    | `Loop -> 1
  in
  let n =
    match mode with
    | `Unrolled -> u * l / 16
    | `Loop -> (l + 15) / 16
  in
  (l, width, u, n)

(* Fast path: entry byte positions from the flat arrays, chunk counters
   in the arena. Allocation-free after arena warm-up. *)
let throughput_in (a : Arena.t) ~mode (b : Block.t) =
  Facile_obs.Obs.timed span @@ fun () ->
  let l = b.Block.len in
  if l = 0 then 0.0
  else begin
    let _, width, u, n = params ~mode b in
    let last_count = Arena.ints a.Arena.predec_last n in
    a.Arena.predec_last <- last_count;
    let opcode_count = Arena.ints a.Arena.predec_opc n in
    a.Arena.predec_opc <- opcode_count;
    let lcp_count = Arena.ints a.Arena.predec_lcp n in
    a.Arena.predec_lcp <- lcp_count;
    Array.fill last_count 0 n 0;
    Array.fill opcode_count 0 n 0;
    Array.fill lcp_count 0 n 0;
    let fl = b.Block.flat in
    let e_last = fl.Block.e_last in
    let e_opc = fl.Block.e_opc in
    let e_lcp = fl.Block.e_lcp in
    let n_ent = Array.length e_last in
    for copy = 0 to u - 1 do
      let base = copy * l in
      for k = 0 to n_ent - 1 do
        let last_b = (base + e_last.(k)) / 16 in
        let opc_b = (base + e_opc.(k)) / 16 in
        last_count.(last_b) <- last_count.(last_b) + 1;
        if opc_b <> last_b then
          opcode_count.(opc_b) <- opcode_count.(opc_b) + 1;
        if e_lcp.(k) then lcp_count.(opc_b) <- lcp_count.(opc_b) + 1
      done
    done;
    total_cycles ~width ~n ~u last_count opcode_count lcp_count
  end

let throughput ~mode b = Arena.with_ (fun a -> throughput_in a ~mode b)

(* Reference path: the pre-flattening implementation (per-call arrays,
   entry-list walk), kept for differential tests and the perf bench. *)
let throughput_ref ~mode (b : Block.t) =
  Facile_obs.Obs.timed span @@ fun () ->
  let l = b.Block.len in
  if l = 0 then 0.0
  else begin
    let _, width, u, n = params ~mode b in
    let last_count = Array.make n 0 in
    let opcode_count = Array.make n 0 in
    let lcp_count = Array.make n 0 in
    let entries = Block.entries b in
    for copy = 0 to u - 1 do
      List.iter
        (fun (e : Block.entry) ->
          let lay = e.Block.layout in
          let last = (copy * l) + lay.Encode.off + lay.Encode.len - 1 in
          let opc = (copy * l) + lay.Encode.nominal_opcode_off in
          let last_b = last / 16 in
          let opc_b = opc / 16 in
          last_count.(last_b) <- last_count.(last_b) + 1;
          if opc_b <> last_b then
            opcode_count.(opc_b) <- opcode_count.(opc_b) + 1;
          if lay.Encode.lcp then lcp_count.(opc_b) <- lcp_count.(opc_b) + 1)
        entries
    done;
    total_cycles ~width ~n ~u last_count opcode_count lcp_count
  end
