(* Host-noise diagnostics and process accounting, all read from /proc:
   CPU steal over a phase, a fixed calibration loop, and the CPU time
   and peak memory of the process doing the work. *)

module Clock = Facile_obs.Clock

let read_file path = In_channel.with_open_bin path In_channel.input_all

let words s =
  String.map (fun c -> if c = '\t' then ' ' else c) s
  |> String.split_on_char ' '
  |> List.filter (( <> ) "")

(* Aggregate CPU ticks of the machine: (steal, total).  The first
   /proc/stat line is "cpu user nice system idle iowait irq softirq
   steal guest guest_nice"; guest time is already inside user/nice, so
   the total is the sum of the first eight. *)
let cpu_ticks () =
  let s = read_file "/proc/stat" in
  let first = String.sub s 0 (String.index s '\n') in
  match words first with
  | "cpu" :: fields ->
    let v = List.map int_of_string fields in
    let total = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 8) v) in
    (List.nth v 7, total)
  | _ -> failwith "unexpected /proc/stat format"

let steal_share (s0, t0) (s1, t1) =
  if t1 <= t0 then 0. else float_of_int (s1 - s0) /. float_of_int (t1 - t0)

(* user+sys CPU of [pid], all threads, in µs.  /proc reports clock
   ticks at USER_HZ, which Linux fixes at 100 per second. *)
let proc_cpu_us pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* the command name (field 2) may hold spaces: fields restart after
     its closing parenthesis, at field 3 *)
  let close = String.rindex s ')' in
  let rest = words (String.sub s (close + 1) (String.length s - close - 1)) in
  let field n = int_of_string (List.nth rest (n - 3)) in
  float_of_int (field 14 + field 15) *. 1e4

(* user+sys CPU of this process, all domains and threads, in µs *)
let self_cpu_us () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e6

(* Peak resident set (VmHWM) of [pid] in MB. *)
let peak_rss_mb pid =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' s)
  in
  match words (String.sub line 6 (String.length line - 6)) with
  | kb :: _ -> float_of_int (int_of_string kb) /. 1024.
  | [] -> failwith "unexpected VmHWM line"

(* Restart this process's VmHWM from its current resident set, so a
   peak reading covers only what follows (Linux, /proc/PID/clear_refs).
   Where the kernel refuses, the peak also covers what came before. *)
let reset_peak_rss () =
  try
    Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc ->
        output_string oc "5")
  with Sys_error _ -> ()

(* A fixed integer workload (an xorshift chain): the same instructions
   on every build, so its time moves only with the host.  Timed before
   and after each timed phase. *)
let calibrate_ms () =
  let t0 = Clock.now_ns () in
  let x = ref (Sys.opaque_identity 0x2545f4914f6cdd1d) in
  for _ = 1 to 25_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  ignore (Sys.opaque_identity !x);
  Clock.ns_to_ms (Clock.now_ns () - t0)

(* CPU readings of the working process, and the host's steal ticks, at
   every whole second of a phase started at [t_start]. *)
type marks = {
  cpu : unit -> float;
  at : float array;
  ticks : (int * int) array;
  mutable next : int;
  t0 : int;
}

let marks ~cpu ~seconds ~t_start =
  let m =
    { cpu; at = Array.make (seconds + 1) 0.; ticks = Array.make (seconds + 1) (0, 0);
      next = 1; t0 = t_start }
  in
  m.at.(0) <- cpu ();
  m.ticks.(0) <- cpu_ticks ();
  m

let take m =
  m.at.(m.next) <- m.cpu ();
  m.ticks.(m.next) <- cpu_ticks ();
  m.next <- m.next + 1

let mark m =
  while
    m.next < Array.length m.at && Clock.now_ns () >= m.t0 + (m.next * 1_000_000_000)
  do
    take m
  done

(* a phase that ended early leaves its last marks at its end *)
let close_marks m =
  while m.next < Array.length m.at do
    take m
  done;
  m

(* Steal share of each whole second. *)
let window_steal m =
  Array.init (Array.length m.ticks - 1) (fun w -> steal_share m.ticks.(w) m.ticks.(w + 1))

(* Host state over one timed phase. *)
type probe = { ticks : int * int; calib_before_ms : float; client_cpu : float }

type noise = {
  steal_share : float;
  calib_ms : float * float;  (** before, after *)
  client_cpu_us : float;     (** this process's CPU over the phase *)
}

let start () =
  let calib_before_ms = calibrate_ms () in
  { ticks = cpu_ticks (); calib_before_ms; client_cpu = self_cpu_us () }

let finish p =
  let ticks = cpu_ticks () and client_cpu = self_cpu_us () in
  { steal_share = steal_share p.ticks ticks;
    calib_ms = (p.calib_before_ms, calibrate_ms ());
    client_cpu_us = client_cpu -. p.client_cpu }
