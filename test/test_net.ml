(* The network serving tier: chunked line framing, the versioned wire
   protocol, the Session layer over socketpairs (concurrent clients,
   rate limiting, EPIPE isolation), and the real TCP listener. *)

open Facile_engine
module Json = Facile_obs.Json
module Sync = Facile_core.Sync

(* a test that writes into sockets the peer may have closed must not
   die of SIGPIPE *)
let () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

(* ----- framing ----- *)

(* Reference semantics: every '\n'-terminated line is one event (Line
   under the cap, Oversized over it), a non-empty unterminated tail is
   flushed by [finish]. *)
let expected_events cap lines tail =
  List.map
    (fun l ->
      if String.length l > cap then Framing.Oversized (String.length l)
      else Framing.Line l)
    lines
  @
  if tail = "" then []
  else if String.length tail > cap then [ Framing.Oversized (String.length tail) ]
  else [ Framing.Line tail ]

let feed_chunked seed cap stream =
  let f = Framing.create ~max_line_bytes:cap in
  let events = ref [] in
  let state = ref (seed lor 1) in
  let next_size () =
    (* xorshift; chunk sizes 1..8 exercise every split position *)
    state := !state lxor (!state lsl 13);
    state := !state lxor (!state lsr 7);
    state := !state lxor (!state lsl 17);
    1 + (abs !state mod 8)
  in
  let n = String.length stream in
  let i = ref 0 in
  while !i < n do
    let len = min (next_size ()) (n - !i) in
    events := !events @ Framing.feed_string f (String.sub stream !i len);
    i := !i + len
  done;
  (match Framing.finish f with Some e -> events := !events @ [ e ] | None -> ());
  !events

let pp_event = function
  | Framing.Line l -> Printf.sprintf "Line %S" l
  | Framing.Oversized n -> Printf.sprintf "Oversized %d" n

let qcheck_framing =
  let gen =
    QCheck.Gen.(
      let line_char = map (fun c -> if c = '\n' then ' ' else c) char in
      let line = string_size (0 -- 40) ~gen:line_char in
      quad (list_size (0 -- 12) line) line int (2 -- 16))
  in
  QCheck.Test.make ~count:500
    ~name:"framing: random chunk splits reassemble the line sequence"
    (QCheck.make gen ~print:(fun (lines, tail, seed, cap) ->
         Printf.sprintf "lines=[%s] tail=%S seed=%d cap=%d"
           (String.concat ";" (List.map (Printf.sprintf "%S") lines))
           tail seed cap))
    (fun (lines, tail, seed, cap) ->
      let stream =
        String.concat "" (List.map (fun l -> l ^ "\n") lines) ^ tail
      in
      feed_chunked seed cap stream = expected_events cap lines tail)

let framing_unit_tests =
  [ Alcotest.test_case "oversized line spanning 1-byte chunks" `Quick
      (fun () ->
        let f = Framing.create ~max_line_bytes:8 in
        let events = ref [] in
        String.iter
          (fun c ->
            events := !events @ Framing.feed_string f (String.make 1 c))
          "AAAAAAAAAAAA\nBB\n";
        Alcotest.(check (list string))
          "events"
          [ "Oversized 12"; "Line \"BB\"" ]
          (List.map pp_event !events);
        Alcotest.(check int) "nothing buffered" 0 (Framing.buffered f));
    Alcotest.test_case "cap boundary: exactly cap is a line" `Quick
      (fun () ->
        let f = Framing.create ~max_line_bytes:4 in
        Alcotest.(check (list string))
          "at cap" [ "Line \"AAAA\"" ]
          (List.map pp_event (Framing.feed_string f "AAAA\n"));
        Alcotest.(check (list string))
          "over cap" [ "Oversized 5" ]
          (List.map pp_event (Framing.feed_string f "AAAAA\n")));
    Alcotest.test_case "finish flushes the unterminated tail" `Quick
      (fun () ->
        let f = Framing.create ~max_line_bytes:64 in
        ignore (Framing.feed_string f "abc");
        (match Framing.finish f with
         | Some (Framing.Line "abc") -> ()
         | e ->
           Alcotest.failf "expected Line \"abc\", got %s"
             (match e with Some e -> pp_event e | None -> "None"));
        Alcotest.(check bool) "empty finish" true (Framing.finish f = None));
    Alcotest.test_case "invalid arguments rejected" `Quick (fun () ->
        Alcotest.check_raises "cap 0" (Invalid_argument
                                         "Framing.create: max_line_bytes = 0")
          (fun () -> ignore (Framing.create ~max_line_bytes:0));
        let f = Framing.create ~max_line_bytes:8 in
        Alcotest.check_raises "bad range"
          (Invalid_argument "Framing.feed: invalid range") (fun () ->
            ignore (Framing.feed f (Bytes.create 4) 2 3))) ]

(* ----- protocol versioning ----- *)

let kind_of resp =
  match Json.member "error" resp with
  | Some e -> Option.bind (Json.member "kind" e) Json.string_opt
  | None -> None

let msg_of resp =
  match Json.member "error" resp with
  | Some e -> Option.bind (Json.member "msg" e) Json.string_opt
  | None -> None

let protocol_tests serve =
  [ Alcotest.test_case "cmd version reports the protocol" `Quick (fun () ->
        let resp = Serve.handle_line serve {|{"cmd":"version"}|} in
        match Json.member "version" resp with
        | None -> Alcotest.fail "no version member"
        | Some v ->
          Alcotest.(check (option int))
            "proto" (Some Serve.proto_version)
            (Option.bind (Json.member "proto" v) Json.int_opt);
          Alcotest.(check (option string))
            "name" (Some "facile")
            (Option.bind (Json.member "name" v) Json.string_opt));
    Alcotest.test_case "unknown request keys are rejected by name" `Quick
      (fun () ->
        let resp = Serve.handle_line serve {|{"id":7,"hex":"90","bogus":1}|} in
        Alcotest.(check (option string))
          "kind" (Some "bad_request") (kind_of resp);
        let msg = Option.value ~default:"" (msg_of resp) in
        let contains s sub =
          let n = String.length sub in
          let rec go i =
            i + n <= String.length s
            && (String.sub s i n = sub || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "msg %S names the key" msg)
          true (contains msg "bogus"));
    Alcotest.test_case "wrong proto rejected, proto 1 accepted" `Quick
      (fun () ->
        let bad = Serve.handle_line serve {|{"proto":2,"hex":"90"}|} in
        Alcotest.(check (option string))
          "kind" (Some "bad_request") (kind_of bad);
        let ok = Serve.handle_line serve {|{"proto":1,"hex":"90"}|} in
        Alcotest.(check bool)
          "proto 1 predicts" true
          (Json.member "cycles" ok <> None));
    Alcotest.test_case "with_proto tags the wire, not handle_line" `Quick
      (fun () ->
        let resp = Serve.handle_line serve {|{"hex":"90"}|} in
        Alcotest.(check bool)
          "handle_line untagged" true
          (Json.member "proto" resp = None);
        Alcotest.(check (option int))
          "with_proto appends" (Some Serve.proto_version)
          (Option.bind (Json.member "proto" (Serve.with_proto resp))
             Json.int_opt);
        (* idempotent: an already-tagged object is left alone *)
        Alcotest.(check bool)
          "idempotent" true
          (Serve.with_proto (Serve.with_proto resp)
           = Serve.with_proto resp)) ]

let config_tests =
  [ Alcotest.test_case "of_config and create agree" `Quick (fun () ->
        let t =
          Serve.of_config
            { Serve.default_config with Serve.workers = Some 1;
              deadline_ms = Some 0 }
        in
        Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
        let resp = Serve.handle_line t {|{"hex":"4801d8"}|} in
        Alcotest.(check (option string)) "deadline 0 times out"
          (Some "timeout") (kind_of resp));
    Alcotest.test_case "invalid configs are rejected" `Quick (fun () ->
        List.iter
          (fun cfg ->
            match Serve.of_config cfg with
            | t ->
              Serve.shutdown t;
              Alcotest.fail "config accepted"
            | exception Invalid_argument _ -> ())
          [ { Serve.default_config with
              Serve.limits =
                { Serve.default_limits with Serve.max_line_bytes = 0 } } ]) ]

(* ----- session over socketpairs ----- *)

let socketpair () =
  Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0

let send_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

(* read lines from [fd] until EOF *)
let recv_lines fd =
  let f = Framing.create ~max_line_bytes:(1 lsl 20) in
  let buf = Bytes.create 4096 in
  let lines = ref [] in
  let add = function
    | Framing.Line l -> lines := l :: !lines
    | Framing.Oversized _ -> ()
  in
  let rec loop () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
      List.iter add (Framing.feed f buf 0 n);
      loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ();
  Option.iter add (Framing.finish f);
  List.rev !lines

let parse_line l =
  match Json.parse l with
  | Ok j -> j
  | Error m -> Alcotest.failf "bad response line %S: %s" l m

(* One counter of [serve]'s stats. *)
let stat serve section key =
  Option.bind (Json.member section (Serve.stats_json serve)) (fun s ->
      Option.bind (Json.member key s) Json.int_opt)

(* Run one client against [serve] over a socketpair: send [payload],
   close the send side, collect every response line.  The session runs
   on its own thread, exactly as a TCP connection does under Net. *)
let with_session_client ?rate serve ~payload =
  let server_fd, client_fd = socketpair () in
  let session = Session.create ?rate serve (Session.fd_transport server_fd) in
  Serve.conn_opened serve;
  let th =
    Thread.create
      (fun () ->
        Fun.protect
          ~finally:(fun () ->
            Unix.close server_fd;
            Serve.conn_closed serve)
          (fun () -> Session.run session))
      ()
  in
  send_all client_fd payload;
  Unix.shutdown client_fd Unix.SHUTDOWN_SEND;
  let lines = recv_lines client_fd in
  Thread.join th;
  (try Unix.close client_fd with Unix.Unix_error _ -> ());
  lines

(* A transport over a list of chunks, one per read, recording every
   line written: the session loop with no socket in the way. *)
let fake_transport chunks =
  let pending = ref chunks and written = ref [] in
  let read buf off _len =
    match !pending with
    | [] -> 0
    | c :: rest ->
      pending := rest;
      Bytes.blit_string c 0 buf off (String.length c);
      String.length c
  in
  ( { Session.ready = (fun _ -> true);
      read;
      write = (fun b -> written := String.trim (Buffer.contents b) :: !written) },
    fun () -> List.rev !written )

(* A client that pipelines is answered in full: however many lines one
   read frames, the session answers each of them, in order, before it
   reads again. *)
let every_line_test serve =
  Alcotest.test_case "every line of one read is answered, in order"
    `Quick (fun () ->
      let n = 1000 and k = 7 in
      let lines n from =
        String.concat ""
          (List.init n (fun i ->
               Printf.sprintf {|{"id":%d,"hex":"90"}|} (from + i) ^ "\n"))
      in
      let tr, written = fake_transport [ lines n 0; lines k n ] in
      Session.run (Session.create serve tr);
      let replies = List.map parse_line (written ()) in
      Alcotest.(check (list (option int))) "answers in input order"
        (List.init (n + k) Option.some)
        (List.map
           (fun j -> Option.bind (Json.member "id" j) Json.int_opt)
           replies);
      Alcotest.(check bool) "every answer a prediction" true
        (List.for_all (fun j -> Json.member "cycles" j <> None) replies))

let session_tests serve =
  [ every_line_test serve;
    Alcotest.test_case "concurrent clients share one core" `Quick (fun () ->
        let payload c =
          String.concat ""
            (List.init 20 (fun i ->
                 Printf.sprintf {|{"id":%d,"hex":"4801d8"}|} ((100 * c) + i)
                 ^ "\n"))
          ^ {|{"cmd":"stats"}|} ^ "\n"
        in
        let results = Array.make 3 [] in
        let clients =
          List.init 3 (fun c ->
              Thread.create
                (fun () ->
                  results.(c) <- with_session_client serve ~payload:(payload c))
                ())
        in
        List.iter Thread.join clients;
        Array.iteri
          (fun c lines ->
            Alcotest.(check int)
              (Printf.sprintf "client %d answered" c)
              21 (List.length lines);
            (* every response carries the proto tag on the wire *)
            List.iter
              (fun l ->
                Alcotest.(check (option int))
                  "proto" (Some Serve.proto_version)
                  (Option.bind (Json.member "proto" (parse_line l))
                     Json.int_opt))
              lines;
            (* ids of prediction responses come back in order *)
            let ids =
              List.filter_map
                (fun l ->
                  let j = parse_line l in
                  if Json.member "stats" j <> None then None
                  else Option.bind (Json.member "id" j) Json.int_opt)
                lines
            in
            Alcotest.(check (list int))
              (Printf.sprintf "client %d ids ordered" c)
              (List.init 20 (fun i -> (100 * c) + i))
              ids)
          results);
    Alcotest.test_case "a flooding client is rate limited, and counted"
      `Quick (fun () ->
        let n = 30 in
        let payload =
          String.concat ""
            (List.init n (fun i ->
                 Printf.sprintf {|{"id":%d,"hex":"90"}|} i ^ "\n"))
        in
        let counted_before =
          Option.get (stat serve "connections" "rate_limited")
        in
        let lines = with_session_client ~rate:2.0 serve ~payload in
        Alcotest.(check int) "every request answered" n (List.length lines);
        let limited =
          List.length
            (List.filter
               (fun l -> kind_of (parse_line l) = Some "rate_limited")
               lines)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%d of %d rate limited" limited n)
          true
          (limited >= n - 10 && limited < n);
        (* the refusals are counted once each in the shared stats *)
        Alcotest.(check (option int)) "stats connections.rate_limited"
          (Some (counted_before + limited))
          (stat serve "connections" "rate_limited");
        (* rate-limited responses carry the retry hint *)
        let hinted =
          List.find_opt
            (fun l -> kind_of (parse_line l) = Some "rate_limited")
            lines
        in
        match hinted with
        | None -> Alcotest.fail "no rate_limited response found"
        | Some l ->
          let j = parse_line l in
          Alcotest.(check bool)
            "retry_after_ms hint" true
            (Option.bind (Json.member "error" j) (Json.member "retry_after_ms")
             <> None));
    Alcotest.test_case "a dead client kills only its own session" `Quick
      (fun () ->
        let server_fd, client_fd = socketpair () in
        let session = Session.create serve (Session.fd_transport server_fd) in
        let epipe_before = Option.get (stat serve "io" "epipe") in
        (* the client sends one request and stops reading before the
           answer can be written: the session's write must fail, be
           counted, and stop only this session.  The client never
           closes its send side, so [run] returns only because the
           session saw the peer gone. *)
        send_all client_fd ({|{"id":1,"hex":"90"}|} ^ "\n");
        Unix.shutdown client_fd Unix.SHUTDOWN_RECEIVE;
        Session.run session;
        List.iter Unix.close [ server_fd; client_fd ];
        Alcotest.(check (option int)) "io.epipe counted once"
          (Some (epipe_before + 1)) (stat serve "io" "epipe");
        (* the shared core survived and still serves *)
        Alcotest.(check bool)
          "core still serves" true
          (Json.member "cycles" (Serve.handle_line serve {|{"hex":"90"}|})
           <> None)) ]

(* ----- the real TCP listener ----- *)

let start_tcp serve cfg =
  let addr = ref None in
  let mu = Mutex.create () in
  let cond = Condition.create () in
  let th =
    Thread.create
      (fun () ->
        Net.run ~signals:false
          ~announce:(fun ~host ~port ->
            Sync.with_lock mu (fun () ->
                addr := Some (host, port);
                Condition.signal cond))
          serve cfg)
      ()
  in
  let host, port =
    Sync.with_lock_cond mu cond
      ~until:(fun () -> !addr <> None)
      (fun () -> Option.get !addr)
  in
  (th, host, port)

let connect host port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  fd

(* Every byte [fd] yields until EOF. *)
let read_all fd =
  let b = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents b
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* [payload] sent to [fd] from a thread of its own, then [fd]'s write
   side closed, while the caller reads the replies. *)
let send_then_close fd payload ~close =
  Thread.create (fun () -> send_all fd payload; close fd) ()

(* The replies of [Net.run_stdio] to [payload] over two pipes. *)
let stdio_replies serve payload =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let ic = Unix.in_channel_of_descr req_r in
  let oc = Unix.out_channel_of_descr resp_w in
  let writer = send_then_close req_w payload ~close:Unix.close in
  let server =
    Thread.create
      (fun () ->
        Net.run_stdio ~signals:false serve ic oc;
        (* run_stdio closes neither channel: its caller owns both *)
        close_out oc)
      ()
  in
  let replies = read_all resp_r in
  List.iter Thread.join [ writer; server ];
  close_in ic;
  Unix.close resp_r;
  replies

let fresh_serve () =
  Serve.of_config { Serve.default_config with Serve.workers = Some 1 }

let tcp_tests () =
  [ Alcotest.test_case "stdio and TCP answer the pinned wire lines alike"
      `Quick (fun () ->
        let lines = Test_pin.wire_lines () in
        let payload = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
        let via_stdio =
          let serve = fresh_serve () in
          Fun.protect ~finally:(fun () -> Serve.shutdown serve) @@ fun () ->
          stdio_replies serve payload
        in
        let via_tcp =
          let serve = fresh_serve () in
          Fun.protect ~finally:(fun () -> Serve.shutdown serve) @@ fun () ->
          let th, host, port =
            start_tcp serve { Net.default_config with Net.port = 0 }
          in
          let fd = connect host port in
          let writer =
            send_then_close fd payload ~close:(fun fd ->
                Unix.shutdown fd Unix.SHUTDOWN_SEND)
          in
          let replies = read_all fd in
          Thread.join writer;
          Unix.close fd;
          Serve.request_shutdown serve;
          Thread.join th;
          replies
        in
        Alcotest.(check int) "one reply per line" (List.length lines)
          (List.length (String.split_on_char '\n' via_stdio) - 1);
        Alcotest.(check bool) "the same bytes" true (via_stdio = via_tcp));
    Alcotest.test_case "TCP end to end: serve, stats, graceful stop" `Quick
      (fun () ->
        let serve =
          Serve.of_config { Serve.default_config with Serve.workers = Some 1 }
        in
        Fun.protect ~finally:(fun () -> Serve.shutdown serve) @@ fun () ->
        let th, host, port =
          start_tcp serve { Net.default_config with Net.port = 0 }
        in
        let fd = connect host port in
        send_all fd
          ({|{"id":1,"hex":"4801d8"}|} ^ "\n" ^ {|{"cmd":"stats"}|} ^ "\n");
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        let lines = recv_lines fd in
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Alcotest.(check int) "two responses" 2 (List.length lines);
        let pred = parse_line (List.nth lines 0) in
        Alcotest.(check (option int))
          "id echoed" (Some 1)
          (Option.bind (Json.member "id" pred) Json.int_opt);
        Alcotest.(check bool)
          "prediction" true
          (Json.member "cycles" pred <> None);
        let stats = parse_line (List.nth lines 1) in
        let accepted =
          Option.bind (Json.member "stats" stats) (fun s ->
              Option.bind (Json.member "connections" s) (fun c ->
                  Option.bind (Json.member "accepted" c) Json.int_opt))
        in
        Alcotest.(check bool)
          "connection accounted" true
          (Option.value ~default:0 accepted >= 1);
        Serve.request_shutdown serve;
        Thread.join th);
    Alcotest.test_case "connections over max-conns are refused" `Quick
      (fun () ->
        let serve =
          Serve.of_config { Serve.default_config with Serve.workers = Some 1 }
        in
        Fun.protect ~finally:(fun () -> Serve.shutdown serve) @@ fun () ->
        let th, host, port =
          start_tcp serve
            { Net.default_config with Net.port = 0; max_conns = 1 }
        in
        (* the first connection occupies the only slot... *)
        let held = connect host port in
        send_all held ({|{"id":1,"hex":"90"}|} ^ "\n");
        let buf = Bytes.create 4096 in
        ignore (Unix.read held buf 0 (Bytes.length buf));
        (* ...so the second is answered with one retry_after line and
           closed *)
        let refused = connect host port in
        let lines = recv_lines refused in
        (try Unix.close refused with Unix.Unix_error _ -> ());
        (match lines with
         | [ l ] ->
           Alcotest.(check (option string))
             "refusal kind" (Some "retry_after") (kind_of (parse_line l))
         | ls -> Alcotest.failf "expected one refusal line, got %d"
                   (List.length ls));
        let rejected =
          Option.bind (Json.member "connections" (Serve.stats_json serve))
            (fun c -> Option.bind (Json.member "rejected" c) Json.int_opt)
        in
        Alcotest.(check (option int)) "rejected counted" (Some 1) rejected;
        (try Unix.close held with Unix.Unix_error _ -> ());
        Serve.request_shutdown serve;
        Thread.join th);
    Alcotest.test_case "endpoint parsing" `Quick (fun () ->
        Alcotest.(check bool)
          "host:port" true
          (Net.parse_endpoint "127.0.0.1:9999" = Ok ("127.0.0.1", 9999));
        Alcotest.(check bool)
          ":port defaults the host" true
          (Net.parse_endpoint ":80" = Ok ("127.0.0.1", 80));
        Alcotest.(check bool)
          "missing port" true
          (Result.is_error (Net.parse_endpoint "localhost"));
        Alcotest.(check bool)
          "bad port" true
          (Result.is_error (Net.parse_endpoint "h:99999"))) ]

(* ----- serving domains ----- *)

(* One response line, read a byte at a time so that nothing after it
   is consumed. *)
let read_line fd =
  let b = Buffer.create 256 and c = Bytes.create 1 in
  let rec go () =
    match Unix.read fd c 0 1 with
    | 0 -> Buffer.contents b
    | _ when Bytes.get c 0 = '\n' -> Buffer.contents b
    | _ ->
      Buffer.add_bytes b c;
      go ()
  in
  go ()

(* A TCP core on [workers] serving domains whose persistence hook runs
   after every prediction, on the thread that answered it: the
   returned function counts the distinct domains that have answered. *)
let domain_serve workers =
  let serve =
    Serve.of_config
      { Serve.default_config with
        Serve.workers = Some workers; flush_every = Some 1 }
  in
  let mu = Mutex.create () and seen = ref [] in
  Serve.set_persist serve (fun () ->
      let d = (Domain.self () :> int) in
      Sync.with_lock mu (fun () ->
          if not (List.mem d !seen) then seen := d :: !seen));
  (serve, fun () -> Sync.with_lock mu (fun () -> List.length !seen))

(* [n] connections, all held open: each sends one request and has its
   answer before the next connects, so each is accepted, and assigned
   a domain, while every earlier one is still open.  Assignment to the
   least-loaded domain then deals them out round robin. *)
let open_conns host port n =
  Array.init n (fun c ->
      let fd = connect host port in
      send_all fd (Printf.sprintf {|{"id":"open %d","hex":"90"}|} c ^ "\n");
      ignore (read_line fd);
      fd)

(* (hex, arch, mode) keys: bodies and loops of a small corpus over three
   µarchs and the three modes, plus one bad hex. *)
let mixed_keys =
  lazy
    (let blocks =
       List.concat_map
         (fun (c : Facile_bhive.Suite.case) ->
           [ c.Facile_bhive.Suite.body; c.Facile_bhive.Suite.loop ])
         (Facile_bhive.Suite.corpus ~seed:23 ~size:8 ())
       |> List.map (fun insts ->
              Facile_x86.Hex.encode (fst (Facile_x86.Encode.encode_block insts)))
     in
     Array.of_list
       (("zz", "SKL", "auto")
        :: List.mapi
             (fun k hex ->
               ( hex,
                 [| "SKL"; "HSW"; "ICL" |].(k mod 3),
                 [| "auto"; "loop"; "unroll" |].(k / 3 mod 3) ))
             blocks))

(* Connection [c]'s [n] requests, ids [1000 c] on; connections overlap
   in the keys they ask for. *)
let mixed_payload c n =
  let keys = Lazy.force mixed_keys in
  String.concat ""
    (List.init n (fun i ->
         let hex, arch, mode = keys.(((7 * c) + i) mod Array.length keys) in
         Printf.sprintf {|{"id":%d,"arch":"%s","mode":"%s","hex":"%s"}|}
           ((1000 * c) + i) arch mode hex
         ^ "\n"))

let id_of_line l =
  match Option.bind (Json.member "id" (parse_line l)) Json.int_opt with
  | Some id -> id
  | None -> Alcotest.failf "no integer id in %S" l

let domain_tests () =
  [ Alcotest.test_case "replies are byte-identical on 1, 2 and 4 domains"
      `Quick (fun () ->
        let conns = 8 and per_conn = 24 in
        let replies workers =
          let serve, seen = domain_serve workers in
          Fun.protect ~finally:(fun () -> Serve.shutdown serve) @@ fun () ->
          let th, host, port =
            start_tcp serve { Net.default_config with Net.port = 0 }
          in
          let fds = open_conns host port conns in
          let payloads = Array.init conns (fun c -> mixed_payload c per_conn) in
          let got = Array.make conns [] in
          let clients =
            Array.mapi
              (fun c fd ->
                Thread.create
                  (fun () ->
                    send_all fd payloads.(c);
                    Unix.shutdown fd Unix.SHUTDOWN_SEND;
                    got.(c) <- recv_lines fd;
                    Unix.close fd)
                  ())
              fds
          in
          Array.iter Thread.join clients;
          Serve.request_shutdown serve;
          Thread.join th;
          let what = Printf.sprintf "%d domains" workers in
          Alcotest.(check int) (what ^ ": domains that answered") workers
            (seen ());
          Array.iteri
            (fun c lines ->
              Alcotest.(check (list int))
                (Printf.sprintf "%s: connection %d ids in order" what c)
                (List.init per_conn (fun i -> (1000 * c) + i))
                (List.map id_of_line lines))
            got;
          List.sort compare
            (List.concat_map
               (List.map (fun l -> (id_of_line l, l)))
               (Array.to_list got))
        in
        let reference = replies 1 in
        List.iter
          (fun workers ->
            Alcotest.(check (list (pair int string)))
              (Printf.sprintf "%d domains = 1 domain" workers)
              reference (replies workers))
          [ 2; 4 ]);
    Alcotest.test_case "drain across domains answers every line read"
      `Quick (fun () ->
        let serve, seen = domain_serve 3 in
        Fun.protect ~finally:(fun () -> Serve.shutdown serve) @@ fun () ->
        let th, host, port =
          start_tcp serve { Net.default_config with Net.port = 0 }
        in
        let conns = 6 and per_conn = 30 in
        let fds = open_conns host port conns in
        (* one write of about 3.5 KB per connection, one segment on
           loopback, then its first answer: the session has read the
           whole batch *)
        Array.iteri (fun c fd -> send_all fd (mixed_payload c per_conn)) fds;
        let first = Array.map read_line fds in
        Serve.request_shutdown serve;
        Thread.join th;
        (* Net.run returned, so every session has ended and closed its
           socket: what is left to read ends in EOF *)
        Array.iteri
          (fun c fd ->
            let lines = first.(c) :: recv_lines fd in
            Unix.close fd;
            Alcotest.(check (list int))
              (Printf.sprintf "connection %d: every line answered" c)
              (List.init per_conn (fun i -> (1000 * c) + i))
              (List.map id_of_line lines))
          fds;
        Alcotest.(check int) "domains that answered" 3 (seen ());
        Alcotest.(check (option int)) "connections.active" (Some 0)
          (stat serve "connections" "active");
        Alcotest.(check (option int)) "connections.accepted" (Some conns)
          (stat serve "connections" "accepted"));
    Alcotest.test_case "max-conns is one count across domains" `Quick
      (fun () ->
        let serve, seen = domain_serve 2 in
        Fun.protect ~finally:(fun () -> Serve.shutdown serve) @@ fun () ->
        let th, host, port =
          start_tcp serve
            { Net.default_config with Net.port = 0; max_conns = 2 }
        in
        let held = open_conns host port 2 in
        Alcotest.(check int) "one connection on each domain" 2 (seen ());
        let refused = connect host port in
        (match recv_lines refused with
         | [ l ] ->
           Alcotest.(check (option string))
             "refusal kind" (Some "retry_after") (kind_of (parse_line l))
         | ls ->
           Alcotest.failf "expected one refusal line, got %d" (List.length ls));
        Unix.close refused;
        Alcotest.(check (option int)) "rejected" (Some 1)
          (stat serve "connections" "rejected");
        Array.iter Unix.close held;
        Serve.request_shutdown serve;
        Thread.join th) ]

let suite =
  (* one shared long-lived core for the pure-protocol and session
     tests, exactly as a server process would hold it *)
  let serve =
    Serve.of_config { Serve.default_config with Serve.workers = Some 1 }
  in
  [ ( "net",
      [ QCheck_alcotest.to_alcotest qcheck_framing ]
      @ framing_unit_tests @ protocol_tests serve @ config_tests
      @ session_tests serve @ tcp_tests () @ domain_tests ()
      @ [ Alcotest.test_case "shutdown" `Quick (fun () ->
              Serve.shutdown serve) ] ) ]
