(* Chaos soak harness for `facile serve`.

   Drives the real binary end to end over OS pipes with thousands of
   mixed requests — valid hex, assembly, typed-error inputs, malformed
   JSON, stats probes — under deterministic fault injection
   (FACILE_FAULT), deadlines, unpaced floods, signals, and tight cache
   bounds.  The service must never crash: every run must exit 0, answer
   every accepted line exactly once, keep the valid subset bit-identical
   to a fault-free baseline, and account for every injected fault in
   its final stats snapshot.

   Usage: chaos.exe path/to/facile.exe   (wired to `dune build @chaos`) *)

module Json = Facile_obs.Json
module Sync = Facile_core.Sync

let bin = Sys.argv.(1)

let failures = ref 0

let checkf name ok fmt =
  Printf.ksprintf
    (fun msg ->
      if ok then Printf.printf "  ok    %s\n%!" name
      else begin
        incr failures;
        Printf.printf "  FAIL  %s: %s\n%!" name msg
      end)
    fmt

let check name ok = checkf name ok "assertion failed"

(* ----- deterministic request corpus ----- *)

(* splitmix64, so the corpus (and any pacing decisions) are identical
   on every run *)
let mk_rng seed =
  let state = ref seed in
  fun () ->
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

let rand_int rng n = Int64.to_int (Int64.rem (Int64.logand (rng ()) Int64.max_int) (Int64.of_int n))

let valid_hexes =
  [| "90"; "4801d8"; "4829d8"; "4831c0"; "4889d8"; "90904801d8";
     "4801d84829d8"; "909090" |]

let valid_asms = [| "add rax, rbx"; "imul rcx, rdx"; "xor rax, rax" |]

(* a mixed request line; [i] is the wire id so responses can be joined
   back to requests *)
let mixed_request rng i =
  let id = [ "id", Json.Int i ] in
  let obj fields = Json.to_string (Json.Obj (id @ fields)) in
  match rand_int rng 20 with
  | 0 -> obj [ "hex", Json.Str "zz" ]                       (* bad_hex *)
  | 1 -> obj [ "arch", Json.Str "ZZZ"; "hex", Json.Str "90" ] (* unknown_arch *)
  | 2 -> obj [ "mode", Json.Str "spin"; "hex", Json.Str "90" ] (* unknown_mode *)
  | 3 -> obj [ "hex", Json.Str "62" ]                       (* encode_error *)
  | 4 -> "definitely not json"                              (* bad_request *)
  | 5 -> obj [ "asm", Json.Str valid_asms.(rand_int rng (Array.length valid_asms)) ]
  | 6 -> Json.to_string (Json.Obj (id @ [ "cmd", Json.Str "stats" ]))
  | 7 ->
    (* oversized: over the soak runs' --max-input-bytes 4096 *)
    obj [ "hex", Json.Str (String.concat "" (List.init 4100 (fun _ -> "90"))) ]
  | _ ->
    let arch = if rand_int rng 4 = 0 then "HSW" else "SKL" in
    obj
      [ "arch", Json.Str arch;
        "hex", Json.Str valid_hexes.(rand_int rng (Array.length valid_hexes)) ]

let corpus ~n ~seed = let rng = mk_rng (Int64.of_int seed) in List.init n (mixed_request rng)

(* ----- driving one live serve process ----- *)

type outcome = {
  exit_code : int;
  lines : string list;        (* stdout lines, in order *)
  err_lines : string list;    (* stderr lines (config announce, stats) *)
  final_stats : Json.t option; (* from the stderr snapshot *)
}

(* Feed [requests] (optionally [pace]d in seconds), read every response
   line; [kill_after n] sends [kill_signal] (default SIGTERM) once [n]
   requests are written and keeps stdin open so shutdown is
   signal-driven — with SIGKILL this is the crash-recovery drill and
   the reported exit code is the real wait status (137). *)
let run_serve ?(args = []) ?(env = []) ?(pace = 0.)
    ?(kill_signal = Sys.sigterm) ?kill_after requests =
  (* cloexec: the child must NOT inherit the parent ends — holding a
     copy of in_w would stop its own stdin from ever reaching EOF.
     create_process dup2s the three fds onto 0/1/2, clearing cloexec
     on the child's copies. *)
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let env_array =
    Array.append (Unix.environment ())
      (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) env))
  in
  let argv = Array.of_list ((bin :: "serve" :: args)) in
  let pid = Unix.create_process_env bin argv env_array in_r out_w err_w in
  Unix.close in_r; Unix.close out_w; Unix.close err_w;
  let reaped = ref None in
  let feeder =
    Thread.create
      (fun () ->
        let oc = Unix.out_channel_of_descr in_w in
        (try
           List.iteri
             (fun i line ->
               output_string oc line;
               output_char oc '\n';
               flush oc;
               if pace > 0. then Thread.delay pace;
               match kill_after with
               | Some n when i + 1 = n -> Unix.kill pid kill_signal
               | _ -> ())
             requests;
           if kill_after = None then close_out oc
           else begin
             (* signal-driven shutdown: wait for the server to exit
                before dropping the pipe *)
             let _, st = Unix.waitpid [ Unix.WUNTRACED ] pid in
             reaped := Some st;
             try close_out oc with Sys_error _ -> ()
           end
         with Sys_error _ -> (* server went away mid-write: fine *) ()))
      ()
  in
  let errbuf = Buffer.create 4096 in
  let err_reader =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr err_r in
        (try
           while true do
             Buffer.add_string errbuf (input_line ic);
             Buffer.add_char errbuf '\n'
           done
         with End_of_file -> ());
        close_in ic)
      ()
  in
  let lines = ref [] in
  let ic = Unix.in_channel_of_descr out_r in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Thread.join feeder;
  Thread.join err_reader;
  let status =
    if kill_after = None then snd (Unix.waitpid [] pid)
    else
      (* reaped by the feeder; a feeder that died on Sys_error before
         reaping leaves the child to us *)
      match !reaped with
      | Some st -> st
      | None -> snd (Unix.waitpid [] pid)
  in
  let exit_code =
    (* OCaml's WSIGNALED carries the runtime's own (negative) signal
       encoding, not the POSIX number — translate the ones we send so
       the shell convention (128+N) holds *)
    let posix s =
      if s = Sys.sigkill then 9 else if s = Sys.sigterm then 15 else abs s
    in
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s -> 128 + posix s
    | Unix.WSTOPPED s -> 256 + posix s
  in
  let err_lines = Buffer.contents errbuf |> String.split_on_char '\n' in
  let final_stats =
    List.find_map
      (fun l ->
        match Json.parse l with
        | Ok j -> Json.member "final_stats" j
        | Error _ -> None)
      err_lines
  in
  { exit_code; lines = List.rev !lines; err_lines; final_stats }

(* ----- response utilities ----- *)

let parse_resp line =
  match Json.parse line with
  | Ok j -> j
  | Error m -> failwith (Printf.sprintf "unparseable response %S: %s" line m)

let resp_id j = Option.bind (Json.member "id" j) Json.int_opt

let error_kind j =
  Option.bind (Json.member "error" j) (fun e ->
      Option.bind (Json.member "kind" e) Json.string_opt)

(* id -> raw response line, for exact comparison; stats responses vary
   between runs (latency, uptime) so they are excluded from equality *)
let by_id lines =
  List.fold_left
    (fun acc line ->
      let j = parse_resp line in
      match resp_id j with
      | Some id when Json.member "stats" j = None -> (id, (line, j)) :: acc
      | _ -> acc)
    [] lines

let get_int path j =
  let rec go path j =
    match path with
    | [] -> Json.int_opt j
    | k :: rest -> Option.bind (Json.member k j) (go rest)
  in
  match go path j with
  | Some i -> i
  | None -> failwith ("final_stats missing " ^ String.concat "." path)

(* ----- phases ----- *)

let soak_n = 5000

let soak_args = [ "--max-input-bytes"; "4096" ]

let phase_baseline () =
  Printf.printf "phase: baseline soak (%d mixed requests)\n%!" soak_n;
  let reqs = corpus ~n:soak_n ~seed:1 in
  let r = run_serve ~args:soak_args reqs in
  check "exit 0" (r.exit_code = 0);
  checkf "one response per request" (List.length r.lines = soak_n)
    "%d responses for %d requests" (List.length r.lines) soak_n;
  List.iter (fun l -> ignore (parse_resp l)) r.lines;
  let leaked =
    List.filter (fun l -> error_kind (parse_resp l) = Some "internal") r.lines
  in
  checkf "no internal leak without faults" (leaked = []) "%d internal"
    (List.length leaked);
  let too_large =
    List.filter (fun l -> error_kind (parse_resp l) = Some "too_large")
      r.lines
  in
  checkf "oversized requests answered too_large" (too_large <> []) "none";
  check "final stats flushed" (r.final_stats <> None);
  (match r.final_stats with
   | Some s ->
     checkf "all requests counted" (get_int [ "requests"; "total" ] s = soak_n)
       "total=%d" (get_int [ "requests"; "total" ] s)
   | None -> ());
  r

let phase_faults baseline =
  Printf.printf "phase: fault-injected soak (same corpus, faults armed)\n%!";
  let reqs = corpus ~n:soak_n ~seed:1 in
  let r =
    run_serve ~args:soak_args
      ~env:[ "FACILE_FAULT", "decode:0.02:7,predict:0.02:11,respond:0.01:13" ]
      reqs
  in
  check "exit 0 under faults" (r.exit_code = 0);
  checkf "every line answered" (List.length r.lines = soak_n)
    "%d responses" (List.length r.lines);
  let base = by_id baseline.lines in
  let faulted = by_id r.lines in
  let diverged =
    List.filter
      (fun (id, (line, j)) ->
        match error_kind j with
        | Some ("internal" | "timeout" | "retry_after") -> false
        | _ -> (
            match List.assoc_opt id base with
            | Some (bline, _) -> bline <> line
            | None -> true))
      faulted
  in
  checkf "valid subset identical to fault-free run" (diverged = [])
    "%d diverged (e.g. id %s)" (List.length diverged)
    (match diverged with (id, _) :: _ -> string_of_int id | [] -> "-");
  (match r.final_stats with
   | None -> check "final stats flushed" false
   | Some s ->
     let injected p = get_int [ "faults"; p; "injected" ] s in
     let total_injected =
       injected "decode" + injected "predict" + injected "respond"
     in
     checkf "faults actually injected" (total_injected > 0) "none injected";
     (* every injected fault surfaces as a typed internal error — and
        nothing else produces internal errors in this run *)
     let internal = get_int [ "errors"; "by_kind"; "internal" ] s in
     checkf "every injected fault counted"
       (internal = total_injected)
       "internal=%d injected=%d" internal total_injected)

(* A client that writes as fast as it can is answered in full: the
   pipe, not a refusal, holds it back. *)
let phase_flood () =
  Printf.printf "phase: unpaced flood (default flags)\n%!";
  let n = 2000 in
  let reqs = corpus ~n ~seed:2 in
  let r = run_serve reqs in
  check "exit 0 under a flood" (r.exit_code = 0);
  checkf "every line answered" (List.length r.lines = n) "%d responses"
    (List.length r.lines);
  let refused =
    List.filter (fun l -> error_kind (parse_resp l) = Some "retry_after")
      r.lines
  in
  checkf "none refused" (refused = []) "%d retry_after"
    (List.length refused);
  let ids = List.filter_map (fun l -> resp_id (parse_resp l)) r.lines in
  checkf "answered in order" (List.sort_uniq compare ids = ids)
    "ids out of order";
  match r.final_stats with
  | None -> check "final stats flushed" false
  | Some s ->
    checkf "all requests counted" (get_int [ "requests"; "total" ] s = n)
      "total=%d" (get_int [ "requests"; "total" ] s)

let phase_deadline () =
  Printf.printf "phase: exhausted deadline (--deadline-ms 0)\n%!";
  let n = 500 in
  let rng = mk_rng 3L in
  let reqs =
    List.init n (fun i ->
        Json.to_string
          (Json.Obj
             [ "id", Json.Int i;
               "hex",
               Json.Str valid_hexes.(rand_int rng (Array.length valid_hexes)) ]))
  in
  let r = run_serve ~args:[ "--deadline-ms"; "0" ] reqs in
  check "exit 0 with deadlines" (r.exit_code = 0);
  let timeouts =
    List.length
      (List.filter (fun l -> error_kind (parse_resp l) = Some "timeout")
         r.lines)
  in
  checkf "every predict timed out" (timeouts = n) "%d/%d timeouts" timeouts n;
  match r.final_stats with
  | None -> check "final stats flushed" false
  | Some s ->
    checkf "timeouts counted" (get_int [ "errors"; "by_kind"; "timeout" ] s = n)
      "stats disagree"

let phase_sigterm () =
  Printf.printf "phase: SIGTERM mid-stream\n%!";
  let reqs = corpus ~n:200 ~seed:4 in
  let r = run_serve ~pace:0.001 ~kill_after:100 reqs in
  check "exit 0 on SIGTERM" (r.exit_code = 0);
  check "final stats flushed on SIGTERM" (r.final_stats <> None);
  checkf "accepted work answered before exit" (List.length r.lines >= 1)
    "no responses at all"

(* ----- TCP serving tier ----- *)

(* Same record convention as bench/experiments.ml: one `BENCH {...}`
   line on stdout and the JSON persisted to BENCH_<name>.json in
   $FACILE_BENCH_DIR (default: the working directory, created when
   missing), written to a temporary file and renamed so a reader never
   sees a torn record. *)
let bench_record name fields =
  let line = Json.to_string (Json.Obj (("name", Json.Str name) :: fields)) in
  Printf.printf "BENCH %s\n%!" line;
  let dir =
    match Sys.getenv_opt "FACILE_BENCH_DIR" with
    | Some d when d <> "" -> d
    | _ -> Filename.current_dir_name
  in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
    end
  in
  mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" name) in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc line;
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path

type tcp_server = {
  pid : int;
  port : int;
  err_thread : Thread.t;
  errbuf : Buffer.t;
  emu : Mutex.t;
}

(* Start `facile serve --tcp 127.0.0.1:0 ...` and wait for the
   ephemeral port announced as {"listening":"host:port"} on stderr. *)
let spawn_tcp ?(env = []) args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let env_array =
    Array.append (Unix.environment ())
      (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) env))
  in
  let argv =
    Array.of_list (bin :: "serve" :: "--tcp" :: "127.0.0.1:0" :: args)
  in
  let pid = Unix.create_process_env bin argv env_array devnull out_w err_w in
  Unix.close devnull;
  Unix.close out_w;
  Unix.close err_w;
  (* stdout stays silent in TCP mode; drain it so the child never
     blocks on a full pipe *)
  ignore
    (Thread.create
       (fun () ->
         let ic = Unix.in_channel_of_descr out_r in
         (try
            while true do
              ignore (input_line ic)
            done
          with End_of_file -> ());
         close_in ic)
       ());
  let port = ref None in
  let pmu = Mutex.create () in
  let errbuf = Buffer.create 4096 in
  let emu = Mutex.create () in
  let err_thread =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr err_r in
        (try
           while true do
             let l = input_line ic in
             (match Json.parse l with
              | Ok j ->
                (match Json.member "listening" j with
                 | Some (Json.Str hp) ->
                   (match String.rindex_opt hp ':' with
                    | Some i ->
                      let p =
                        int_of_string
                          (String.sub hp (i + 1) (String.length hp - i - 1))
                      in
                      Sync.with_lock pmu (fun () -> port := Some p)
                    | None -> ())
                 | _ -> ())
              | Error _ -> ());
             Sync.with_lock emu (fun () ->
                 Buffer.add_string errbuf l;
                 Buffer.add_char errbuf '\n')
           done
         with End_of_file -> ());
        close_in ic)
      ()
  in
  let rec wait_port n =
    if n = 0 then failwith "TCP server never announced its port";
    let p = Sync.with_lock pmu (fun () -> !port) in
    match p with
    | Some p -> p
    | None ->
      Thread.delay 0.05;
      wait_port (n - 1)
  in
  let p = wait_port 100 in
  { pid; port = p; err_thread; errbuf; emu }

(* SIGTERM the server, reap it, and return (exit_code, final_stats). *)
let stop_tcp s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] s.pid in
  Thread.join s.err_thread;
  let exit_code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED n -> 128 + n
    | Unix.WSTOPPED n -> 256 + n
  in
  let err = Sync.with_lock s.emu (fun () -> Buffer.contents s.errbuf) in
  let final_stats =
    String.split_on_char '\n' err
    |> List.find_map (fun l ->
           match Json.parse l with
           | Ok j -> Json.member "final_stats" j
           | Error _ -> None)
  in
  (exit_code, final_stats)

let server_alive s =
  match Unix.kill s.pid 0 with
  | () -> true
  | exception Unix.Unix_error _ -> false

(* One TCP client conversation: send every request (optionally paced),
   half-close, collect every response line until the server's EOF.  A
   concurrent reader thread keeps both socket directions draining so
   neither side can deadlock on full kernel buffers. *)
let tcp_client ?(pace = 0.) port requests =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let lines = ref [] in
  let reader =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr fd in
        try
          while true do
            lines := input_line ic :: !lines
          done
        with End_of_file | Sys_error _ -> ())
      ()
  in
  let send s =
    let b = Bytes.unsafe_of_string s in
    let n = Bytes.length b in
    let rec go off =
      if off < n then go (off + Unix.write fd b off (n - off))
    in
    go 0
  in
  (try
     List.iter
       (fun r ->
         send (r ^ "\n");
         if pace > 0. then Thread.delay pace)
       requests;
     Unix.shutdown fd Unix.SHUTDOWN_SEND
   with Unix.Unix_error _ | Sys_error _ -> ());
  Thread.join reader;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  List.rev !lines

let tcp_get_stats port =
  match tcp_client port [ {|{"cmd":"stats"}|} ] with
  | [ l ] ->
    (match Json.member "stats" (parse_resp l) with
     | Some s -> s
     | None -> failwith "stats response without stats member")
  | ls -> failwith (Printf.sprintf "%d responses to one stats probe"
                      (List.length ls))

let phase_tcp_storm () =
  let clients = 32 and per = 150 in
  Printf.printf "phase: TCP storm (%d concurrent clients, faults armed)\n%!"
    clients;
  let s =
    spawn_tcp ~env:[ "FACILE_FAULT", "decode:0.02:7,predict:0.02:11,respond:0.01:13" ]
      soak_args
  in
  let results = Array.make clients [] in
  let threads =
    List.init clients (fun c ->
        Thread.create
          (fun () ->
            (* mixed valid/garbage/oversized traffic, distinct id
               ranges per client; light pacing keeps all 32 clients
               connected at once *)
            let rng = mk_rng (Int64.of_int (100 + c)) in
            let reqs =
              List.init per (fun i ->
                  mixed_request rng ((1_000_000 * (c + 1)) + i))
            in
            results.(c) <- tcp_client ~pace:0.002 s.port reqs)
          ())
  in
  List.iter Thread.join threads;
  check "server alive after the storm" (server_alive s);
  Array.iteri
    (fun c lines ->
      checkf
        (Printf.sprintf "client %d: every line answered" c)
        (List.length lines = per)
        "%d responses for %d requests" (List.length lines) per;
      List.iter (fun l -> ignore (parse_resp l)) lines)
    results;
  (* responses carry the protocol version on the wire *)
  let tagged =
    Array.for_all
      (List.for_all (fun l ->
           Option.bind (Json.member "proto" (parse_resp l)) Json.int_opt
           = Some 1))
      results
  in
  check "every response carries proto 1" tagged;
  let live = tcp_get_stats s.port in
  checkf "connections accounted"
    (get_int [ "connections"; "accepted" ] live >= clients)
    "accepted=%d" (get_int [ "connections"; "accepted" ] live);
  check "bytes accounted"
    (get_int [ "connections"; "bytes_in" ] live > 0
     && get_int [ "connections"; "bytes_out" ] live > 0);
  (* graceful SIGTERM drain with a client still connected and idle *)
  let idle = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect idle (Unix.ADDR_INET (Unix.inet_addr_loopback, s.port));
  Thread.delay 0.1;
  let exit_code, final = stop_tcp s in
  check "exit 0 on SIGTERM with open connections" (exit_code = 0);
  (* the drained server closed the idle connection cleanly *)
  let saw_eof =
    let buf = Bytes.create 64 in
    match Unix.read idle buf 0 64 with
    | 0 -> true
    | _ -> false
    | exception Unix.Unix_error _ -> true
  in
  check "idle connection drained to EOF" saw_eof;
  (try Unix.close idle with Unix.Unix_error _ -> ());
  match final with
  | None -> check "final stats flushed on SIGTERM" false
  | Some f ->
    checkf "final stats count every connection"
      (get_int [ "connections"; "accepted" ] f >= clients + 1)
      "accepted=%d" (get_int [ "connections"; "accepted" ] f);
    checkf "no connection left active"
      (get_int [ "connections"; "active" ] f = 0)
      "active=%d" (get_int [ "connections"; "active" ] f);
    let injected p = get_int [ "faults"; p; "injected" ] f in
    checkf "faults actually injected over TCP"
      (injected "decode" + injected "predict" + injected "respond" > 0)
      "none injected"

let phase_tcp_rate () =
  Printf.printf "phase: TCP per-connection rate limit (--conn-rate 20)\n%!";
  let s = spawn_tcp [ "--conn-rate"; "20" ] in
  let n = 200 in
  let flood =
    List.init n (fun i ->
        Json.to_string (Json.Obj [ "id", Json.Int i; "hex", Json.Str "90" ]))
  in
  let lines = tcp_client s.port flood in
  checkf "flood fully answered" (List.length lines = n) "%d responses"
    (List.length lines);
  let limited =
    List.length
      (List.filter (fun l -> error_kind (parse_resp l) = Some "rate_limited")
         lines)
  in
  checkf "flooding client rate limited" (limited > 0) "no rate_limited";
  (* a polite client on its own connection has its own bucket *)
  let polite =
    tcp_client ~pace:0.06 s.port
      (List.init 20 (fun i ->
           Json.to_string
             (Json.Obj [ "id", Json.Int (1000 + i); "hex", Json.Str "90" ])))
  in
  check "polite client not limited"
    (List.for_all
       (fun l -> error_kind (parse_resp l) <> Some "rate_limited")
       polite);
  let exit_code, final = stop_tcp s in
  check "exit 0 after rate limiting" (exit_code = 0);
  match final with
  | None -> check "final stats flushed" false
  | Some f ->
    (* every refusal the client saw is accounted, nothing more *)
    checkf "per-connection refusals match final stats"
      (get_int [ "connections"; "rate_limited" ] f = limited)
      "stats=%d observed=%d"
      (get_int [ "connections"; "rate_limited" ] f)
      limited;
    checkf "refusals typed in the error taxonomy"
      (get_int [ "errors"; "by_kind"; "rate_limited" ] f = limited)
      "by_kind disagrees"

(* Multi-instruction corpus blocks as hex, each in its straight-line
   and its loop variant. *)
let corpus_hexes ~seed ~size =
  let skl = Facile_uarch.Config.by_arch Facile_uarch.Config.SKL in
  let hex insts =
    let b = Facile_core.Block.of_instructions skl insts in
    let bytes = b.Facile_core.Block.bytes in
    String.concat ""
      (List.init (String.length bytes) (fun i ->
           Printf.sprintf "%02x" (Char.code bytes.[i])))
  in
  List.concat_map
    (fun (c : Facile_bhive.Suite.case) ->
      [ hex c.Facile_bhive.Suite.body; hex c.Facile_bhive.Suite.loop ])
    (Facile_bhive.Suite.corpus ~max_len:24 ~seed ~size ())

(* Faults make no answer wrong: every successful reply from a server
   under injected predict faults, with several connections predicting
   at once on their own threads, equals the fault-free reply bit for
   bit.  The other phases count crashes; this one checks answers. *)
let phase_tcp_fault_answers () =
  let conns = 6 and per = 1500 in
  Printf.printf
    "phase: TCP answers under predict faults (%d connections)\n%!"
    conns;
  let hexes = Array.of_list (corpus_hexes ~seed:17 ~size:400) in
  let arches = [| "SKL"; "HSW"; "SNB"; "ICL"; "RKL"; "BDW" |] in
  let request k =
    Json.to_string
      (Json.Obj
         [ "id", Json.Int k;
           "arch", Json.Str arches.(k mod Array.length arches);
           "hex", Json.Str hexes.(k mod Array.length hexes) ])
  in
  let reqs c = List.init per (fun i -> request ((c * per) + i)) in
  let clean = spawn_tcp [] in
  let reference =
    by_id (tcp_client clean.port (List.concat (List.init conns reqs)))
  in
  ignore (stop_tcp clean);
  checkf "reference answered" (List.length reference = conns * per)
    "%d of %d" (List.length reference) (conns * per);
  let s = spawn_tcp ~env:[ "FACILE_FAULT", "predict:0.02:29" ] [] in
  let results = Array.make conns [] in
  let threads =
    List.init conns (fun c ->
        Thread.create (fun () -> results.(c) <- tcp_client s.port (reqs c)) ())
  in
  List.iter Thread.join threads;
  let exit_code, _ = stop_tcp s in
  check "exit 0 after the faulted run" (exit_code = 0);
  let answered = List.concat (Array.to_list results) in
  checkf "every line answered" (List.length answered = conns * per)
    "%d of %d" (List.length answered) (conns * per);
  let ok = ref 0 and internal = ref 0 and wrong = ref [] in
  List.iter
    (fun (id, (line, j)) ->
      match error_kind j with
      | Some "internal" -> incr internal
      | Some k -> wrong := (id, k) :: !wrong
      | None ->
        incr ok;
        (match List.assoc_opt id reference with
         | Some (rline, _) when rline = line -> ()
         | _ -> wrong := (id, "cycles") :: !wrong))
    (by_id answered);
  checkf "faults actually injected" (!internal > 0) "no internal replies";
  checkf "most requests succeeded" (!ok > conns * per / 2) "%d ok" !ok;
  checkf "every successful reply matches the fault-free run" (!wrong = [])
    "%d wrong (e.g. id %s)" (List.length !wrong)
    (match !wrong with (id, k) :: _ -> Printf.sprintf "%d: %s" id k | [] -> "-")

let phase_tcp_bench () =
  Printf.printf "phase: TCP throughput (1 vs 32 clients, fault-free)\n%!";
  let s = spawn_tcp [] in
  let valid_req id =
    Json.to_string
      (Json.Obj
         [ "id", Json.Int id;
           "hex",
           Json.Str valid_hexes.(id mod Array.length valid_hexes) ])
  in
  let n1 = 400 in
  let t0 = Unix.gettimeofday () in
  let lines1 = tcp_client s.port (List.init n1 valid_req) in
  let wall1 = Unix.gettimeofday () -. t0 in
  checkf "bench: single client answered" (List.length lines1 = n1)
    "%d responses" (List.length lines1);
  let rps1 = float_of_int n1 /. wall1 in
  let clients = 32 and per = 150 in
  let results = Array.make clients 0 in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun c ->
        Thread.create
          (fun () ->
            let reqs =
              List.init per (fun i -> valid_req ((1_000_000 * (c + 1)) + i))
            in
            results.(c) <- List.length (tcp_client s.port reqs))
          ())
  in
  List.iter Thread.join threads;
  let wall32 = Unix.gettimeofday () -. t0 in
  check "bench: every storm line answered"
    (Array.for_all (fun n -> n = per) results);
  let rps32 = float_of_int (clients * per) /. wall32 in
  let exit_code, _ = stop_tcp s in
  check "bench: clean exit" (exit_code = 0);
  bench_record "serve_tcp"
    [ "clients", Json.Int clients;
      "requests_1", Json.Int n1;
      "requests_32", Json.Int (clients * per);
      "rps_1", Json.Float (Float.round rps1);
      "rps_32", Json.Float (Float.round rps32);
      "wall_1_s", Json.Float wall1;
      "wall_32_s", Json.Float wall32 ]

let phase_lru () =
  Printf.printf "phase: bounded cache churn (--cache-cap 64)\n%!";
  let n = 200 in
  let reqs =
    List.init n (fun i ->
        let hex = String.concat "" (List.init (i + 1) (fun _ -> "90")) in
        Json.to_string (Json.Obj [ "id", Json.Int i; "hex", Json.Str hex ]))
  in
  let r =
    (* the derived shard count (4 per serving domain) is clamped to 4
       at cap 64; the bound and the eviction accounting must hold
       across the shards *)
    run_serve ~args:[ "--cache-cap"; "64" ] reqs
  in
  check "exit 0 under cache churn" (r.exit_code = 0);
  match r.final_stats with
  | None -> check "final stats flushed" false
  | Some s ->
    checkf "evictions happened"
      (get_int [ "cache"; "evictions" ] s > 0) "none evicted";
    checkf "cache stayed bounded" (get_int [ "cache"; "entries" ] s <= 64)
      "entries=%d" (get_int [ "cache"; "entries" ] s);
    checkf "effective shard count reported"
      (get_int [ "cache"; "shards" ] s = 4)
      "shards=%d" (get_int [ "cache"; "shards" ] s)

(* ----- persistent prediction store ----- *)

let temp_path () =
  let p = Filename.temp_file "facile_chaos_store" ".seg" in
  Sys.remove p;
  p

(* Run `facile <args>` to completion, timed; output discarded. *)
let run_cmd args =
  let t0 = Unix.gettimeofday () in
  let code =
    Sys.command
      (String.concat " " (List.map Filename.quote (bin :: args))
      ^ " >/dev/null 2>&1")
  in
  (code, Unix.gettimeofday () -. t0)

(* The one-line {"config":...} announce on serve startup carries the
   warm-load count. *)
let announced_warm_records r =
  List.find_map
    (fun l ->
      match Json.parse l with
      | Ok j ->
        Option.bind (Json.member "config" j) (fun c ->
            Option.bind (Json.member "warm_records" c) Json.int_opt)
      | Error _ -> None)
    r.err_lines

let flip_file_bit path off =
  let ic = open_in_bin path in
  let s = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  Bytes.set s off (Char.chr (Char.code (Bytes.get s off) lxor 0x40));
  let oc = open_out_bin path in
  output_bytes oc s;
  close_out oc

(* [n] requests cycling 16 distinct memo keys (8 hexes x 2 arches);
   arch switches per block of 8 so the pairs don't alias on parity *)
let store_requests n =
  List.init n (fun i ->
      Json.to_string
        (Json.Obj
           [ "id", Json.Int i;
             "arch", Json.Str (if i / 8 mod 2 = 0 then "SKL" else "HSW");
             "hex", Json.Str valid_hexes.(i mod Array.length valid_hexes) ]))

let phase_store_warm () =
  Printf.printf "phase: persistent store warm restart\n%!";
  let path = temp_path () in
  let args = [ "--store"; path ] in
  let reqs = store_requests 48 in
  let cold = run_serve ~args reqs in
  check "cold run exit 0" (cold.exit_code = 0);
  check "cold run starts empty" (announced_warm_records cold = Some 0);
  (* the graceful-shutdown flush must leave a store that satisfies the
     full recompute audit: every persisted prediction equals a fresh
     model run, bit for bit *)
  let c, _ = run_cmd [ "cache"; "verify"; "--recompute"; path ] in
  checkf "store verifies against recomputation" (c = 0) "exit %d" c;
  let warm = run_serve ~args reqs in
  check "warm run exit 0" (warm.exit_code = 0);
  checkf "warm run announces the recovered records"
    (announced_warm_records warm = Some 16)
    "announced %s"
    (match announced_warm_records warm with
     | Some n -> string_of_int n
     | None -> "nothing");
  let base = by_id cold.lines and rerun = by_id warm.lines in
  let diverged =
    List.filter
      (fun (id, (line, _)) ->
        match List.assoc_opt id base with
        | Some (bline, _) -> bline <> line
        | None -> true)
      rerun
  in
  checkf "responses bit-identical across restart" (diverged = [])
    "%d diverged" (List.length diverged);
  (match warm.final_stats with
   | None -> check "final stats flushed" false
   | Some s ->
     (* with every key seeded, no warm request recomputes *)
     checkf "every warm request served from the seeded cache"
       (get_int [ "cache"; "hits" ] s = List.length reqs)
       "hits=%d" (get_int [ "cache"; "hits" ] s);
     checkf "shutdown flush accounted"
       (get_int [ "store"; "flushes" ] s >= 1)
       "flushes=%d" (get_int [ "store"; "flushes" ] s);
     checkf "no persist errors"
       (get_int [ "store"; "persist_errors" ] s = 0)
       "persist_errors=%d" (get_int [ "store"; "persist_errors" ] s));
  Sys.remove path

let phase_store_crash () =
  Printf.printf "phase: store crash recovery (SIGKILL mid-stream)\n%!";
  let path = temp_path () in
  let args = [ "--store"; path; "--store-flush"; "1" ] in
  let r =
    run_serve ~args ~pace:0.002 ~kill_signal:Sys.sigkill ~kill_after:40
      (store_requests 120)
  in
  checkf "killed hard" (r.exit_code = 128 + 9) "exit %d" r.exit_code;
  check "predictions flushed before the kill"
    (Sys.file_exists path && (Unix.stat path).Unix.st_size > 24);
  (* restart over the same store: recovery truncates at most the frame
     being written, then serving resumes warm *)
  let r2 = run_serve ~args (store_requests 48) in
  check "restart exit 0" (r2.exit_code = 0);
  checkf "restart recovered records"
    (match announced_warm_records r2 with Some n -> n >= 1 | None -> false)
    "announced %s"
    (match announced_warm_records r2 with
     | Some n -> string_of_int n
     | None -> "nothing");
  let c, _ = run_cmd [ "cache"; "verify"; "--recompute"; path ] in
  checkf "verify passes after crash recovery" (c = 0) "exit %d" c;
  (* a corrupted frame must fail verification with the check exit code *)
  flip_file_bit path (24 + 8);  (* first payload byte of the first frame *)
  let c', _ = run_cmd [ "cache"; "verify"; path ] in
  checkf "verify rejects the corrupted store" (c' = 10) "exit %d" c';
  Sys.remove path

let phase_store_bench () =
  Printf.printf "phase: store warm-vs-cold batch bench\n%!";
  let path = temp_path () in
  let input = Filename.temp_file "facile_chaos_bench" ".hex" in
  let n = 256 in
  let oc = open_out input in
  for i = 1 to n do
    (* distinct blocks: nop sleds of increasing length ending in a
       real add, so every line is a fresh memo key *)
    output_string oc (String.concat "" (List.init i (fun _ -> "90")));
    output_string oc "4801d8\n"
  done;
  close_out oc;
  let cold_code, cold_s = run_cmd [ "batch"; "--store"; path; input ] in
  checkf "cold batch exit 0" (cold_code = 0) "exit %d" cold_code;
  let warm_code, warm_s = run_cmd [ "batch"; "--store"; path; input ] in
  checkf "warm batch exit 0" (warm_code = 0) "exit %d" warm_code;
  (* the same run without a store: most of a 256-block run is process
     start-up, which this shows beside the cold and warm times *)
  let plain_code, no_store_s = run_cmd [ "batch"; input ] in
  checkf "no-store batch exit 0" (plain_code = 0) "exit %d" plain_code;
  bench_record "store"
    [ "blocks", Json.Int n;
      "no_store_s", Json.Float no_store_s;
      "cold_s", Json.Float cold_s;
      "warm_s", Json.Float warm_s ];
  Sys.remove path;
  Sys.remove input

let () =
  (* writes to an already-dead server (SIGTERM phase) must raise
     Sys_error, not kill the harness *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t0 = Unix.gettimeofday () in
  let baseline = phase_baseline () in
  phase_faults baseline;
  phase_flood ();
  phase_deadline ();
  phase_sigterm ();
  phase_lru ();
  phase_store_warm ();
  phase_store_crash ();
  phase_store_bench ();
  phase_tcp_storm ();
  phase_tcp_rate ();
  phase_tcp_fault_answers ();
  phase_tcp_bench ();
  Printf.printf "chaos: %s in %.1fs\n%!"
    (if !failures = 0 then "all phases passed"
     else Printf.sprintf "%d FAILURES" !failures)
    (Unix.gettimeofday () -. t0);
  exit (if !failures = 0 then 0 else 1)
