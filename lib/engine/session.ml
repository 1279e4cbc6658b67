(* One protocol session over one byte-stream transport, run as a single
   loop on the caller's thread:

     ready (0.1 s) -> read -> Framing -> for each line, in order:
       admission (rate) -> shed over queue_cap -> callback -> write

   Waiting with a timeout instead of blocking in [read] is what lets
   the loop notice [should_stop] without a watcher thread.
   A dead peer stops only this session. *)

exception Peer_closed

type transport = {
  ready : float -> bool;
  read : bytes -> int -> int -> int;
  write : string -> unit;
  close : unit -> unit;
}

type callbacks = {
  on_line : string -> string;
  on_oversized : int -> string;
  on_shed : string -> string;
  on_rate_limited : string -> string;
}

type sink = {
  on_bytes_in : int -> unit;
  on_bytes_out : int -> unit;
  on_epipe : unit -> unit;
}

type counters = {
  bytes_in : int;
  bytes_out : int;
  lines : int;
  shed : int;
  rate_limited : int;
  epipe : int;
}

type t = {
  tr : transport;
  cb : callbacks;
  sink : sink option;
  should_stop : unit -> bool;
  on_peer_gone : unit -> unit;
  queue_cap : int;
  framing : Framing.t;
  peer_gone : bool Atomic.t;
  rate : float;
  burst : float;
  mutable tokens : float; (* lint: unguarded — only the session's thread *)
  mutable last_refill_ns : int; (* lint: unguarded — only the session's thread *)
  (* counters: written by the session's thread, readable from any *)
  c_bytes_in : int Atomic.t;
  c_bytes_out : int Atomic.t;
  c_lines : int Atomic.t;
  c_shed : int Atomic.t;
  c_rate_limited : int Atomic.t;
  c_epipe : int Atomic.t;
}

(* Reset-style errno sets: on the read side they mean "the stream is
   over", on the write side "the peer is gone" — neither is a bug. *)
let eof_errno = function
  | Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF | Unix.ENOTCONN
  | Unix.EINVAL | Unix.ESHUTDOWN ->
    true
  | _ -> false

let fd_transport fd =
  let ready s =
    match Unix.select [ fd ] [] [] s with
    | [], _, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    (* any other error surfaces on the read, as end of stream *)
    | exception Unix.Unix_error _ -> true
  in
  let rec read buf off len =
    match Unix.read fd buf off len with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read buf off len
    | exception Unix.Unix_error (e, _, _) when eof_errno e -> 0
    | exception (End_of_file | Sys_error _) -> 0
  in
  let write s =
    let b = Bytes.unsafe_of_string s in
    let n = Bytes.length b in
    let rec go off =
      if off < n then
        match Unix.write fd b off (n - off) with
        | w -> go (off + w)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception Unix.Unix_error (e, _, _) when eof_errno e ->
          raise Peer_closed
        | exception Sys_error _ -> raise Peer_closed
    in
    go 0
  in
  let close () =
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ | Sys_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ | Sys_error _ -> ()
  in
  { ready; read; write; close }

(* How long [run] waits for input before polling [should_stop] again. *)
let poll_s = 0.1

let create ?(queue_cap = 128) ?(rate = 0.) ?burst
    ?(should_stop = fun () -> false) ?(on_peer_gone = fun () -> ()) ?sink
    ~max_line_bytes cb tr =
  if queue_cap < 1 then
    invalid_arg (Printf.sprintf "Session.create: queue_cap = %d" queue_cap);
  if rate < 0. || not (Float.is_finite rate) then
    invalid_arg (Printf.sprintf "Session.create: rate = %g" rate);
  let burst = Option.value burst ~default:(Float.max 1. rate) in
  if rate > 0. && (burst < 1. || not (Float.is_finite burst)) then
    invalid_arg (Printf.sprintf "Session.create: burst = %g" burst);
  { tr;
    cb;
    sink;
    should_stop;
    on_peer_gone;
    queue_cap;
    framing = Framing.create ~max_line_bytes;
    peer_gone = Atomic.make false;
    rate;
    burst;
    tokens = burst;
    last_refill_ns = Facile_obs.Clock.now_ns ();
    c_bytes_in = Atomic.make 0;
    c_bytes_out = Atomic.make 0;
    c_lines = Atomic.make 0;
    c_shed = Atomic.make 0;
    c_rate_limited = Atomic.make 0;
    c_epipe = Atomic.make 0 }

let stopped t = Atomic.get t.peer_gone

let counters t =
  { bytes_in = Atomic.get t.c_bytes_in;
    bytes_out = Atomic.get t.c_bytes_out;
    lines = Atomic.get t.c_lines;
    shed = Atomic.get t.c_shed;
    rate_limited = Atomic.get t.c_rate_limited;
    epipe = Atomic.get t.c_epipe }

(* Refill-then-take token bucket. *)
let admit t =
  if t.rate <= 0. then true
  else begin
    let now = Facile_obs.Clock.now_ns () in
    let dt_s = float_of_int (now - t.last_refill_ns) /. 1e9 in
    t.last_refill_ns <- now;
    t.tokens <- Float.min t.burst (t.tokens +. (dt_s *. t.rate));
    if t.tokens >= 1. then begin
      t.tokens <- t.tokens -. 1.;
      true
    end
    else false
  end

(* A failed write means the peer is gone: count it, run the policy
   hook, and stop this session. *)
let write_resp t s =
  match t.tr.write (s ^ "\n") with
  | () ->
    let n = String.length s + 1 in
    ignore (Atomic.fetch_and_add t.c_bytes_out n);
    (match t.sink with Some k -> k.on_bytes_out n | None -> ())
  | exception (Peer_closed | Sys_error _ | Unix.Unix_error _) ->
    Atomic.set t.peer_gone true;
    Atomic.incr t.c_epipe;
    (match t.sink with Some k -> k.on_epipe () | None -> ());
    try t.on_peer_gone () with _ -> ()

(* Answer the events framed out of one read, in order.  [admitted]
   counts the lines of this read that were not rate limited; past
   [queue_cap] of them the rest are shed.  Once the peer is gone
   nothing is left to answer. *)
let answer t events =
  let admitted = ref 0 in
  List.iter
    (fun ev ->
      if not (Atomic.get t.peer_gone) then
        match ev with
        | Framing.Line l ->
          if String.trim l <> "" then begin
            Atomic.incr t.c_lines;
            if not (admit t) then begin
              Atomic.incr t.c_rate_limited;
              write_resp t (t.cb.on_rate_limited l)
            end
            else if !admitted >= t.queue_cap then begin
              Atomic.incr t.c_shed;
              write_resp t (t.cb.on_shed l)
            end
            else begin
              incr admitted;
              write_resp t (t.cb.on_line l)
            end
          end
        | Framing.Oversized n -> write_resp t (t.cb.on_oversized n))
    events

let run t =
  let buf = Bytes.create 65536 in
  let rec loop () =
    if not (stopped t || t.should_stop ()) then
      if not (t.tr.ready poll_s) then loop ()
      else
        match t.tr.read buf 0 (Bytes.length buf) with
        | 0 ->
          (* like input_line: trailing bytes with no '\n' are a line *)
          answer t (Option.to_list (Framing.finish t.framing))
        | n ->
          ignore (Atomic.fetch_and_add t.c_bytes_in n);
          (match t.sink with Some k -> k.on_bytes_in n | None -> ());
          answer t (Framing.feed t.framing buf 0 n);
          loop ()
        | exception (End_of_file | Sys_error _ | Unix.Unix_error _) ->
          answer t (Option.to_list (Framing.finish t.framing))
  in
  loop ();
  try t.tr.close () with _ -> ()
