(* TCP listener for the NDJSON service: accept loop -> one thread +
   one {!Session} per connection, all against a shared {!Serve.t}.

   Concurrency shape: the accept loop runs on the calling thread with
   a 0.1s select timeout so it notices the shutdown flag promptly.
   Each accepted connection gets one plain [Thread] that runs its
   session's loop — read, frame, predict, write — so a request is
   answered on the thread that read it.  Every session polls the
   service's stop flag itself; the drain is: stop accepting, then join
   every connection thread, each of which answers what it has read and
   returns within the session's poll interval. *)

module Json = Facile_obs.Json
module Obs = Facile_obs.Obs
module Sync = Facile_core.Sync

type config = {
  host : string;
  port : int;
  max_conns : int;
  conn_rate : float;
}

let default_config =
  { host = "127.0.0.1"; port = 0; max_conns = 64; conn_rate = 0. }

let parse_endpoint s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "expected HOST:PORT, got %S" s)
  | Some i ->
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt port with
     | Some p when p >= 0 && p <= 65535 ->
       Ok ((if host = "" then "127.0.0.1" else host), p)
     | _ -> Error (Printf.sprintf "invalid port %S in %S" port s))

(* One refusal line for a connection over the limit, then close; the
   write is best-effort (the client may already be gone). *)
let refuse_conn t fd ~max_conns =
  Serve.conn_rejected t;
  Obs.incr "net.conns.rejected";
  let line =
    Json.to_string
      (Serve.with_proto
         (Json.Obj
            [ "id", Json.Null;
              "error",
              Json.Obj
                [ "kind", Json.Str "retry_after";
                  "msg",
                  Json.Str
                    (Printf.sprintf
                       "connection limit reached (max %d concurrent)"
                       max_conns);
                  "retry_after_ms", Json.Int 100 ] ]))
    ^ "\n"
  in
  let b = Bytes.unsafe_of_string line in
  (try ignore (Unix.write fd b 0 (Bytes.length b))
   with Unix.Unix_error _ | Sys_error _ -> ());
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL
   with Unix.Unix_error _ | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ | Sys_error _ -> ()

let resolve host port =
  match Unix.inet_addr_of_string host with
  | addr -> Unix.ADDR_INET (addr, port)
  | exception Failure _ ->
    (match Unix.gethostbyname host with
     | { Unix.h_addr_list = [||]; _ } ->
       failwith (Printf.sprintf "cannot resolve host %S" host)
     | h -> Unix.ADDR_INET (h.Unix.h_addr_list.(0), port)
     | exception Not_found ->
       failwith (Printf.sprintf "cannot resolve host %S" host))

let run ?(signals = true) ?(announce = fun ~host:_ ~port:_ -> ()) t cfg =
  if cfg.max_conns < 1 then
    invalid_arg (Printf.sprintf "Net.run: max_conns = %d" cfg.max_conns);
  if cfg.conn_rate < 0. || not (Float.is_finite cfg.conn_rate) then
    invalid_arg (Printf.sprintf "Net.run: conn_rate = %g" cfg.conn_rate);
  if cfg.port < 0 || cfg.port > 65535 then
    invalid_arg (Printf.sprintf "Net.run: port = %d" cfg.port);
  if signals then Serve.install_signal_handlers t;
  let addr = resolve cfg.host cfg.port in
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt lfd Unix.SO_REUSEADDR true;
     Unix.bind lfd addr;
     Unix.listen lfd 128
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close lfd with Unix.Unix_error _ -> ());
     failwith
       (Printf.sprintf "cannot listen on %s:%d: %s" cfg.host cfg.port
          (Unix.error_message e)));
  (match Unix.getsockname lfd with
   | Unix.ADDR_INET (a, p) ->
     announce ~host:(Unix.string_of_inet_addr a) ~port:p
   | Unix.ADDR_UNIX _ -> ());
  let conns : (int, Thread.t) Hashtbl.t = Hashtbl.create 64 in
  let cmu = Mutex.create () in
  let locked f = Sync.with_lock cmu f in
  let active = Atomic.make 0 in
  let next_id = ref 0 in
  let serve_conn id cfd =
    let rate = if cfg.conn_rate > 0. then Some cfg.conn_rate else None in
    let session = Serve.session ?rate t (Session.fd_transport cfd) in
    let thread =
      Thread.create
        (fun () ->
          Fun.protect
            ~finally:(fun () ->
              Serve.conn_closed t;
              Obs.decr "net.conns.active";
              ignore (Atomic.fetch_and_add active (-1));
              locked (fun () -> Hashtbl.remove conns id))
            (fun () -> Session.run session))
        ()
    in
    locked (fun () -> Hashtbl.replace conns id thread)
  in
  let accept_loop () =
    while not (Serve.stopping t) do
      match Unix.select [ lfd ] [] [] 0.1 with
      | [], _, _ -> ()
      | _ :: _, _, _ ->
        (match Unix.accept ~cloexec:true lfd with
         | cfd, _peer ->
           if Serve.stopping t then (
             try Unix.close cfd with Unix.Unix_error _ -> ())
           else if Atomic.get active >= cfg.max_conns then
             refuse_conn t cfd ~max_conns:cfg.max_conns
           else begin
             Serve.conn_opened t;
             Obs.incr "net.conns.accepted";
             Obs.incr "net.conns.active";
             Atomic.incr active;
             incr next_id;
             serve_conn !next_id cfd
           end
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
         | exception
             Unix.Unix_error
               ((Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
           ->
           ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with Unix.Unix_error _ | Sys_error _ -> ());
      (* graceful drain: every session sees the stop flag, answers
         what it has read, and returns; join them all before the final
         snapshot *)
      let live = locked (fun () -> Hashtbl.fold (fun _ th acc -> th :: acc)
                                     conns []) in
      List.iter (fun th -> try Thread.join th with _ -> ()) live;
      Serve.print_final_stats t)
    accept_loop
