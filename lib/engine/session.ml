(* One connection of a {!Serve.t}, run as a single loop on the
   caller's thread:

     ready (0.1 s) -> read -> Framing -> for each line, in order:
       admission (rate) -> Serve answers into the reply buffer -> write

   Waiting with a timeout instead of blocking in [read] is what lets
   the loop notice [Serve.stopping] without a watcher thread.
   A dead peer stops only this session. *)

exception Peer_closed

type transport = {
  ready : float -> bool;
  read : bytes -> int -> int -> int;
  write : Buffer.t -> unit;
}

type t = {
  core : Serve.t;
  tr : transport;
  framing : Framing.t;
  out : Buffer.t;  (* the reply being printed; only the session's thread *)
  mutable peer_gone : bool; (* lint: unguarded — only the session's thread *)
  rate : float;
  burst : float;
  mutable tokens : float; (* lint: unguarded — only the session's thread *)
  mutable last_refill_ns : int; (* lint: unguarded — only the session's thread *)
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
  in
  (* a reply leaves the session's buffer through one scratch chunk, so
     a write allocates nothing *)
  let scratch = Bytes.create 4096 in
  let rec write_scratch off len =
    if len > 0 then
      match Unix.write fd scratch off len with
      | w -> write_scratch (off + w) (len - w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_scratch off len
      | exception Unix.Unix_error (e, _, _) when eof_errno e ->
        raise Peer_closed
  in
  let write buf =
    let n = Buffer.length buf in
    let rec from pos =
      if pos < n then begin
        let len = min (n - pos) (Bytes.length scratch) in
        Buffer.blit buf pos scratch 0 len;
        write_scratch 0 len;
        from (pos + len)
      end
    in
    from 0
  in
  { ready; read; write }

(* How long [run] waits for input before polling [Serve.stopping]
   again. *)
let poll_s = 0.1

(* The reply buffer starts at [out_bytes] and keeps what a reply grew
   it to, up to [kept_out_bytes]: a rare larger one (a long echoed id)
   is not held for the session's life. *)
let out_bytes = 1024
let kept_out_bytes = 65536

let create ?(rate = 0.) core tr =
  if rate < 0. || not (Float.is_finite rate) then
    invalid_arg (Printf.sprintf "Session.create: rate = %g" rate);
  (* a second's worth of requests, and at least one *)
  let burst = Float.max 1. rate in
  { core;
    tr;
    framing =
      Framing.create ~max_line_bytes:(Serve.limits core).Serve.max_line_bytes;
    out = Buffer.create out_bytes;
    peer_gone = false;
    rate;
    burst;
    tokens = burst;
    last_refill_ns = Facile_obs.Clock.now_ns () }

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

(* Write the reply printed into [t.out], with its newline, and empty
   the buffer for the next one: a reply is printed once and copied by
   nobody.  A failed write means the peer is gone: count it and stop
   this session. *)
let write_out t =
  let out = t.out in
  Buffer.add_char out '\n';
  (match t.tr.write out with
   | () -> Serve.count_bytes_out t.core (Buffer.length out)
   | exception (Peer_closed | Unix.Unix_error _) ->
     t.peer_gone <- true;
     Serve.count_epipe t.core);
  if Buffer.length out > kept_out_bytes then Buffer.reset out
  else Buffer.clear out

(* Answer the events framed out of one read, in order.  Once the peer
   is gone nothing is left to answer. *)
let answer t events =
  List.iter
    (fun ev ->
      if not t.peer_gone then
        match ev with
        | Framing.Line l when String.trim l = "" -> ()
        | Framing.Line l ->
          Serve.print_reply t.out
            (if admit t then Serve.handle_line t.core l
             else Serve.rate_limited t.core l);
          write_out t
        | Framing.Oversized n ->
          Serve.print_reply t.out (Serve.handle_oversized t.core n);
          write_out t)
    events

let run t =
  let buf = Bytes.create 65536 in
  let rec loop () =
    if not (t.peer_gone || Serve.stopping t.core) then
      if not (t.tr.ready poll_s) then loop ()
      else
        match t.tr.read buf 0 (Bytes.length buf) with
        | 0 ->
          (* like input_line: trailing bytes with no '\n' are a line *)
          answer t (Option.to_list (Framing.finish t.framing))
        | n ->
          Serve.count_bytes_in t.core n;
          answer t (Framing.feed t.framing buf 0 n);
          loop ()
        | exception Unix.Unix_error _ ->
          answer t (Option.to_list (Framing.finish t.framing))
  in
  loop ()
