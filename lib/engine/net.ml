(* The NDJSON service's two ways in, each connection one {!Session} of
   a shared {!Serve.t}: stdio, served as one session on the calling
   thread, and a TCP listener, one accept loop and each accepted
   connection served on one thread of one of [Serve.workers t] serving
   domains.

   Concurrency shape.  The calling domain is serving domain 0: it runs
   the accept loop, with a 0.1 s select timeout so it notices the
   shutdown flag promptly, and the threads of the connections assigned
   to it.  The other [workers - 1] serving domains are spawned once the
   listener is up.  [Thread.create] makes a thread on the domain that
   calls it, so each spawned domain runs a small hand-off loop: it
   waits on its lane's inbox and starts a thread for every connection
   the accept loop puts there.  Each accepted connection goes to the
   domain with the fewest open connections, ties to the lowest index.
   A connection's thread runs its session's loop — read, frame,
   predict, write — so a request is answered on the thread, and the
   domain, that read it.

   Drain: every session polls the service's stop flag itself and
   returns within its poll interval, having answered what it read.
   The accept loop closes the listener and each spawned domain's inbox;
   a spawned domain starts what was already handed to it, joins its own
   connection threads and returns.  The calling domain joins its own
   threads, then the spawned domains, and only then prints the final
   stats.

   Memory: a domain that allocates touches its whole minor heap, 256k
   words (2 MB) by default, so each spawned serving domain halves its
   own ([spawned_minor_heap_words]). *)

module Json = Facile_obs.Json
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

let close_conn fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* One refusal line for a connection over the limit, then close; the
   write is best-effort (the client may already be gone). *)
let refuse_conn t fd ~max_conns =
  Serve.conn_rejected t;
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
   with Unix.Unix_error _ -> ());
  close_conn fd

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

(* Minor heap of a spawned serving domain, in words: half the runtime's
   default, which the calling domain keeps.  Measured on perfbench's
   served workloads (2 vCPUs): with the default, the extra domain
   added 6-9 % to the server's RSS; with 64k words, set-up took about
   a fifth longer: a domain with a small heap collects more often while
   it builds a µarch's tables, and each minor collection stops the idle
   calling domain too. *)
let spawned_minor_heap_words = 131072

(* One serving domain's connections.  [open_conns] (assigned and not
   yet closed) drives the assignment.  [inbox] and [closed] are the
   hand-off from the accept loop, unused on the calling domain, which
   starts its own threads.  [threads] holds the running connection
   threads, joined at drain. *)
type lane = {
  mu : Mutex.t;
  wake : Condition.t;
  mutable inbox : (int * Unix.file_descr) list;  (* newest first *)
  mutable closed : bool;
  threads : (int, Thread.t) Hashtbl.t;
  open_conns : int Atomic.t;
}

let lane () =
  { mu = Mutex.create (); wake = Condition.create (); inbox = [];
    closed = false; threads = Hashtbl.create 16; open_conns = Atomic.make 0 }

(* The lane with the fewest open connections, the lowest index on a
   tie. *)
let least_loaded lanes =
  let best = ref 0 in
  Array.iteri
    (fun i l ->
      if Atomic.get l.open_conns < Atomic.get lanes.(!best).open_conns then
        best := i)
    lanes;
  !best

let hand_off lane conn =
  Sync.with_lock lane.mu (fun () ->
      lane.inbox <- conn :: lane.inbox;
      Condition.signal lane.wake)

let close_inbox lane =
  Sync.with_lock lane.mu (fun () ->
      lane.closed <- true;
      Condition.signal lane.wake)

(* Join [lane]'s connection threads, once no connection can be added
   to it. *)
let join_threads lane =
  let live =
    Sync.with_lock lane.mu (fun () ->
        Hashtbl.fold (fun _ th acc -> th :: acc) lane.threads [])
  in
  List.iter (fun th -> try Thread.join th with _ -> ()) live

(* A spawned serving domain: start every connection handed to it, until
   the accept loop closes its inbox, then join them. *)
let serve_lane lane start =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = spawned_minor_heap_words };
  let rec loop () =
    match
      Sync.with_lock_cond lane.mu lane.wake
        ~until:(fun () -> lane.inbox <> [] || lane.closed)
        (fun () ->
          let conns = List.rev lane.inbox in
          lane.inbox <- [];
          conns)
    with
    | [] -> ()
    | conns ->
      List.iter start conns;
      loop ()
  in
  loop ();
  join_threads lane

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
  let lanes = Array.init (Serve.workers t) (fun _ -> lane ()) in
  (* Serve connection [id] on a new thread of the calling domain, which
     is [lane]'s. *)
  let start lane (id, cfd) =
    let session =
      Session.create ~rate:cfg.conn_rate t (Session.fd_transport cfd)
    in
    let release () =
      close_conn cfd;
      Serve.conn_closed t;
      Atomic.decr lane.open_conns
    in
    let body () =
      Fun.protect
        ~finally:(fun () ->
          release ();
          Sync.with_lock lane.mu (fun () -> Hashtbl.remove lane.threads id))
        (fun () -> Session.run session)
    in
    (* registered under the lock the thread takes to deregister, so a
       short connection cannot finish first and leave its entry behind *)
    match
      Sync.with_lock lane.mu (fun () ->
          Hashtbl.replace lane.threads id (Thread.create body ()))
    with
    | () -> ()
    | exception Sys_error _ ->
      (* no thread to serve it (the system refused one): close it, as a
         client that left would *)
      release ()
  in
  let next_id = ref 0 in
  let admit cfd =
    Serve.conn_opened t;
    incr next_id;
    let i = least_loaded lanes in
    Atomic.incr lanes.(i).open_conns;
    if i = 0 then start lanes.(0) (!next_id, cfd)
    else hand_off lanes.(i) (!next_id, cfd)
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
           else if Serve.active_conns t >= cfg.max_conns then
             refuse_conn t cfd ~max_conns:cfg.max_conns
           else admit cfd
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
         | exception
             Unix.Unix_error
               ((Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
           ->
           ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  let domains = ref [] in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with Unix.Unix_error _ | Sys_error _ -> ());
      (* graceful drain; the flag is set already unless the accept loop
         raised, and every session must see it to return *)
      Serve.request_shutdown t;
      Array.iteri (fun i l -> if i > 0 then close_inbox l) lanes;
      join_threads lanes.(0);
      List.iter (fun d -> try Domain.join d with _ -> ()) !domains;
      Serve.print_final_stats t)
    (fun () ->
      for i = 1 to Array.length lanes - 1 do
        let l = lanes.(i) in
        domains := Domain.spawn (fun () -> serve_lane l (start l)) :: !domains
      done;
      accept_loop ())

(* Stdio is one more session: it reads [ic]'s descriptor and writes
   [oc]'s, with no channel buffer in the way, and closes neither, since
   the caller owns both.  Its one session ending ends the service. *)
let run_stdio ?(signals = true) t ic oc =
  if signals then Serve.install_signal_handlers t;
  let out = Session.fd_transport (Unix.descr_of_out_channel oc) in
  let transport =
    { (Session.fd_transport (Unix.descr_of_in_channel ic)) with
      Session.write = out.Session.write }
  in
  Serve.conn_opened t;
  Fun.protect ~finally:(fun () -> Serve.conn_closed t) (fun () ->
      Session.run (Session.create t transport));
  Serve.print_final_stats t
