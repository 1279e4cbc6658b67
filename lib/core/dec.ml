open Facile_uarch

let complex_cycles_of_fused fu = if fu > 4 then (fu + 3) / 4 else 1

let complex_cycles (l : Block.logical) =
  complex_cycles_of_fused l.Block.fused_uops

let simple (b : Block.t) =
  let fl = b.Block.flat in
  let n = Array.length fl.Block.l_fused in
  if n = 0 then 0.0
  else begin
    let d = b.Block.cfg.Config.n_decoders in
    let c = ref 0 in
    for i = 0 to n - 1 do
      if fl.Block.l_complex.(i) then
        c := !c + complex_cycles_of_fused fl.Block.l_fused.(i)
    done;
    Float.max (float_of_int n /. float_of_int d) (float_of_int !c)
  end

let span = Facile_obs.Obs.histogram "model.dec"

(* Fast path: the decoder-allocation simulation of Algorithm 1 over the
   flat per-logical arrays, with the two scratch tables in the arena.
   Allocation-free after arena warm-up. *)
let throughput_in (a : Arena.t) (b : Block.t) =
  Facile_obs.Obs.timed span @@ fun () ->
  let fl = b.Block.flat in
  let l_complex = fl.Block.l_complex in
  let n_items = Array.length l_complex in
  if n_items = 0 then 0.0
  else begin
    let cfg = b.Block.cfg in
    let l_fused = fl.Block.l_fused in
    let l_avail = fl.Block.l_avail in
    let l_branch = fl.Block.l_branch in
    let l_mfused = fl.Block.l_mfused in
    let ndec = cfg.Config.n_decoders in
    let max_iter = (ndec * 4) + 8 in
    let n_complex = Arena.ints a.Arena.dec_complex (max_iter + 2) in
    a.Arena.dec_complex <- n_complex;
    let first_on_dec = Arena.ints a.Arena.dec_first ndec in
    a.Arena.dec_first <- first_on_dec;
    Array.fill first_on_dec 0 ndec (-1);
    let cur_dec = ref (ndec - 1) in
    let n_avail = ref 0 in
    let result = ref (-1.0) in
    let iteration = ref 0 in
    while !result < 0.0 && !iteration < max_iter do
      incr iteration;
      let it = !iteration in
      n_complex.(it) <- 0;
      let idx = ref 0 in
      while !result < 0.0 && !idx < n_items do
        let i = !idx in
        if l_complex.(i) then begin
          cur_dec := 0;
          n_avail := l_avail.(i)
        end
        else if
          !n_avail = 0
          || (!cur_dec + 1 = ndec - 1
              && l_mfused.(i)
              && not cfg.Config.macro_fusible_on_last_decoder)
        then begin
          cur_dec := 0;
          n_avail := ndec - 1
        end
        else begin
          incr cur_dec;
          decr n_avail
        end;
        if l_branch.(i) then n_avail := 0;
        if !cur_dec = 0 then
          n_complex.(it) <-
            n_complex.(it) + complex_cycles_of_fused l_fused.(i);
        if i = 0 then begin
          let f = first_on_dec.(!cur_dec) in
          if f >= 0 then begin
            let u = it - f in
            let cycles = ref 0 in
            for r = f to it - 1 do
              cycles := !cycles + n_complex.(r)
            done;
            result := float_of_int !cycles /. float_of_int u
          end
          else first_on_dec.(!cur_dec) <- it
        end;
        incr idx
      done
    done;
    if !result >= 0.0 then !result
    else
      (* cannot happen: with [ndec] decoders the first instruction can
         only land on [ndec] distinct decoders *)
      simple b
  end

let throughput b = Arena.with_ (fun a -> throughput_in a b)

(* Reference path: the pre-flattening implementation (per-call list ->
   array conversion and scratch allocation), kept for differential
   tests and the perf bench. *)
let throughput_ref (b : Block.t) =
  Facile_obs.Obs.timed span @@ fun () ->
  let items = Array.of_list (Block.logicals b) in
  let n_items = Array.length items in
  if n_items = 0 then 0.0
  else begin
    let cfg = b.Block.cfg in
    let ndec = cfg.Config.n_decoders in
    let max_iter = (ndec * 4) + 8 in
    let n_complex = Array.make (max_iter + 2) 0 in
    let first_on_dec = Array.make ndec (-1) in
    let cur_dec = ref (ndec - 1) in
    let n_avail = ref 0 in
    let result = ref None in
    let iteration = ref 0 in
    while !result = None && !iteration < max_iter do
      incr iteration;
      let it = !iteration in
      n_complex.(it) <- 0;
      Array.iteri
        (fun idx item ->
          if !result = None then begin
            if item.Block.complex_decode then begin
              cur_dec := 0;
              n_avail := item.Block.available_simple_dec
            end
            else if
              !n_avail = 0
              || (!cur_dec + 1 = ndec - 1
                  && item.Block.macro_fused
                  && not cfg.Config.macro_fusible_on_last_decoder)
            then begin
              cur_dec := 0;
              n_avail := ndec - 1
            end
            else begin
              incr cur_dec;
              decr n_avail
            end;
            if item.Block.is_branch then n_avail := 0;
            if !cur_dec = 0 then
              n_complex.(it) <- n_complex.(it) + complex_cycles item;
            if idx = 0 then begin
              let f = first_on_dec.(!cur_dec) in
              if f >= 0 then begin
                let u = it - f in
                let cycles = ref 0 in
                for r = f to it - 1 do
                  cycles := !cycles + n_complex.(r)
                done;
                result := Some (float_of_int !cycles /. float_of_int u)
              end
              else first_on_dec.(!cur_dec) <- it
            end
          end)
        items
    done;
    match !result with
    | Some r -> r
    | None -> simple b
  end
