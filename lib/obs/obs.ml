(* Structured observability with no external dependencies: fixed-bucket
   latency histograms, a registry of named spans, and per-instance
   counter maps, all safe to update from the engine's worker domains,
   plus a JSON snapshot for the serving layer's stats endpoint. *)

module Histogram = struct
  (* Fixed log2 buckets: bucket [i] counts samples [v] (nanoseconds)
     with 2^i <= v < 2^(i+1); bucket 0 also absorbs v <= 1.  63
     buckets cover every representable duration, recording is two
     atomic adds (no lock, no allocation), and quantiles are read by
     scanning 63 integers — the right trade for a hot path that must
     never block the predictor. *)

  let buckets = 63

  type t = { counts : int Atomic.t array; sum : int Atomic.t }

  let create () =
    { counts = Array.init buckets (fun _ -> Atomic.make 0);
      sum = Atomic.make 0 }

  let bucket_of v =
    let rec highest_bit i v = if v <= 1 then i else highest_bit (i + 1) (v lsr 1) in
    if v <= 1 then 0 else min (buckets - 1) (highest_bit 0 v)

  let record t v =
    let v = max 0 v in
    Atomic.incr t.counts.(bucket_of v);
    ignore (Atomic.fetch_and_add t.sum v)

  let count t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t.counts
  let sum_ns t = Atomic.get t.sum

  let mean_ns t =
    let n = count t in
    if n = 0 then 0.0 else float_of_int (sum_ns t) /. float_of_int n

  (* q-quantile in nanoseconds, linearly interpolated inside the
     bucket that contains the target rank; exact up to bucket
     resolution (a factor of 2). *)
  let quantile t q =
    let n = count t in
    if n = 0 then 0.0
    else begin
      let q = Float.min 1.0 (Float.max 0.0 q) in
      let target = max 1 (int_of_float (ceil (q *. float_of_int n))) in
      let rec scan i cum =
        let here = Atomic.get t.counts.(i) in
        if cum + here >= target || i = buckets - 1 then begin
          let lo = if i = 0 then 0.0 else Float.of_int (1 lsl i) in
          let hi = Float.of_int (1 lsl (i + 1)) in
          let inside = float_of_int (target - cum) /. float_of_int (max 1 here) in
          lo +. (inside *. (hi -. lo))
        end
        else scan (i + 1) (cum + here)
      in
      scan 0 0
    end

  let reset t =
    Array.iter (fun c -> Atomic.set c 0) t.counts;
    Atomic.set t.sum 0

  let to_json t =
    let n = count t in
    Json.Obj
      [ "count", Json.Int n;
        "sum_ns", Json.Int (sum_ns t);
        "mean_ns", Json.Float (mean_ns t);
        "p50_ns", Json.Float (quantile t 0.50);
        "p95_ns", Json.Float (quantile t 0.95);
        "p99_ns", Json.Float (quantile t 0.99) ]
end

(* ----- global registry ----- *)

(* Lock-free registry: a CAS-published assoc list of named spans.
   This library sits below Facile_core in the dependency order, so it
   cannot use Sync.with_lock — and it should not need to: the registry
   is tiny (tens of entries, touched at module init), and a
   compare-and-set retry loop gives the same "first registration wins"
   semantics with no lock to leak.  Hot call sites resolve their
   histogram once at module initialization and use
   [timed]/[Histogram.record] directly, which touch only atomics. *)

let spans : (string * Histogram.t) list Atomic.t = Atomic.make []

(* Register-or-find under CAS.  A lost race re-reads the list, so a
   name resolves to exactly one histogram for every caller; a losing
   freshly-allocated one is dropped before anyone records into it. *)
let rec histogram name =
  let cur = Atomic.get spans in
  match List.assoc_opt name cur with
  | Some h -> h
  | None ->
    let h = Histogram.create () in
    if Atomic.compare_and_set spans cur ((name, h) :: cur) then h
    else histogram name

(* Per-instance concurrent counter map over the same CAS-published
   assoc-list idiom as the registry: the serving layer's
   by-arch/by-kind tallies are bumped from N session threads, and a
   lock there would sit exactly where the stats path should stay
   wait-free.  Key sets are tiny (arch abbrevs, error kinds), so an
   assoc list beats a hashed structure and needs no synchronization
   beyond the publish CAS. *)
module Cmap = struct
  type t = (string * int Atomic.t) list Atomic.t

  let create () : t = Atomic.make []

  let rec cell (t : t) name =
    let cur = Atomic.get t in
    match List.assoc_opt name cur with
    | Some c -> c
    | None ->
      let c = Atomic.make 0 in
      if Atomic.compare_and_set t cur ((name, c) :: cur) then c
      else cell t name

  let bump ?(by = 1) t name = ignore (Atomic.fetch_and_add (cell t name) by)

  let get t name =
    match List.assoc_opt name (Atomic.get t) with
    | Some c -> Atomic.get c
    | None -> 0

  (* sorted for deterministic JSON field order *)
  let bindings t =
    List.sort compare
      (List.map (fun (k, c) -> (k, Atomic.get c)) (Atomic.get t))
end

(* Time [f] into [h]; the sample is recorded even when [f] raises, so
   error paths stay visible in the latency distribution. *)
let timed h f =
  let t0 = Clock.now_ns () in
  match f () with
  | r ->
    Histogram.record h (Clock.now_ns () - t0);
    r
  | exception e ->
    Histogram.record h (Clock.now_ns () - t0);
    raise e

let snapshot () =
  Json.Obj
    [ "spans",
      Json.Obj
        (List.map
           (fun (k, h) -> (k, Histogram.to_json h))
           (List.sort
              (fun (a, _) (b, _) -> compare a b)
              (Atomic.get spans))) ]

(* Zero every histogram in place.  Entries stay registered: call sites
   cache [Histogram.t] values at module init, and clearing the list
   would silently detach those from future snapshots. *)
let reset () = List.iter (fun (_, h) -> Histogram.reset h) (Atomic.get spans)
