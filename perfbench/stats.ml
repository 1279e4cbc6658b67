(* Order statistics for the benchmark's samples, and a growable
   unboxed buffer to collect them in during a timed phase. *)

(* Growable int buffer: latencies and timestamps in nanoseconds are
   pushed here in the timed loop without boxing. *)
module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let length v = v.n
  let to_array v = Array.sub v.a 0 v.n
end

(* [percentile sorted p]: linear interpolation between the closest
   ranks (rank [(n-1) p], NumPy's default).  [sorted] is ascending and
   non-empty, [p] in [0, 1]. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  if not (p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "Stats.percentile: p = %g" p);
  let h = float_of_int (n - 1) *. p in
  let lo = truncate h in
  let hi = min (lo + 1) (n - 1) in
  sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a = percentile (sorted_copy a) 0.5

let mean a =
  if Array.length a = 0 then invalid_arg "Stats.mean: empty sample";
  Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* Samples strictly above the [p]-quantile: a percentile is reported
   only with at least ten samples beyond it. *)
let beyond sorted p =
  let q = percentile sorted p in
  Array.fold_left (fun n x -> if x > q then n + 1 else n) 0 sorted

(* ----- one timed phase ----- *)

(* The end-to-end figures of a timed phase, over all of it. *)
type summary = {
  ops_per_s : float;      (** operations completed per second of the phase *)
  p50_us : float;
  p99_us : float;
  mean_us : float;
  samples : int;
  beyond_p99 : int;
  cpu_us_per_op : float;  (** the working process's CPU over the phase, per operation *)
}

(* [summarize ~elapsed_ns ~lat_ns ~cpu_us]: a phase that lasted
   [elapsed_ns], completed one operation per entry of [lat_ns] (its
   latency in ns), and in which the working process used [cpu_us] of
   CPU.  With no operation completed every figure is 0 (the run is then
   marked incorrect). *)
let summarize ~elapsed_ns ~lat_ns ~cpu_us =
  let n = Array.length lat_ns in
  if n = 0 then
    { ops_per_s = 0.; p50_us = 0.; p99_us = 0.; mean_us = 0.; samples = 0; beyond_p99 = 0;
      cpu_us_per_op = 0. }
  else
    let lat = sorted_copy (Array.map (fun x -> float_of_int x /. 1e3) lat_ns) in
    { ops_per_s = float_of_int n /. (float_of_int elapsed_ns /. 1e9);
      p50_us = percentile lat 0.5;
      p99_us = percentile lat 0.99;
      mean_us = mean lat;
      samples = n;
      beyond_p99 = beyond lat 0.99;
      cpu_us_per_op = cpu_us /. float_of_int n }

(* One second of a timed phase, for the report's per-second lines:
   they show when in a run the host took the CPUs away, and what that
   did to the figures.  They are diagnostics, not metrics. *)
type second = {
  ops : int;
  p50_us : float;         (** 0 in a second with no operation *)
  p99_us : float;
  cpu_us_per_op : float;
  steal : float;          (** share of the host's CPU time stolen *)
}

(* [per_second ~done_ns ~lat_ns ~cpu_us ~steal]: operation [i]
   completed [done_ns.(i)] ns after the phase start (ascending) and took
   [lat_ns.(i)]; [cpu_us.(w)] is the working process's CPU time at the
   start of second [w] (and at the end of the last); [steal.(w)] is
   second [w]'s steal share.  Operations completed after the last whole
   second count in the last. *)
let per_second ~done_ns ~lat_ns ~cpu_us ~steal =
  let n = Array.length done_ns and last = Array.length steal - 1 in
  let lo = ref 0 in
  Array.init (Array.length steal) (fun w ->
      let hi = ref !lo in
      while !hi < n && (w = last || done_ns.(!hi) < (w + 1) * 1_000_000_000) do
        incr hi
      done;
      let ops = !hi - !lo in
      let lat = sorted_copy (Array.init ops (fun j -> float_of_int lat_ns.(!lo + j) /. 1e3)) in
      lo := !hi;
      let pct p = if ops = 0 then 0. else percentile lat p in
      { ops; p50_us = pct 0.5; p99_us = pct 0.99;
        cpu_us_per_op = (cpu_us.(w + 1) -. cpu_us.(w)) /. float_of_int (max 1 ops);
        steal = steal.(w) })
