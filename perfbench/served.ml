(* The served workloads: a child `facile serve --tcp 127.0.0.1:0`
   process, driven over TCP by one client thread.  The loop is closed:
   each connection has one request in flight and sends the next only
   when the reply is in, as a compiler waiting on each prediction
   would. *)

module Clock = Facile_obs.Clock
module Json = Facile_obs.Json
module Ivec = Stats.Ivec

(* One connection per core of the 2-vCPU reference host. *)
let connections = 2

let sec = 1_000_000_000

(* ----- line reading over a file descriptor ----- *)

type reader = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let reader fd = { fd; buf = Buffer.create 1024; chunk = Bytes.create 65536 }

let rec select_read fds timeout =
  match Unix.select fds [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_read fds timeout

(* Read once from a readable descriptor; [false] at end of stream. *)
let fill r =
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | 0 -> false
  | n ->
    Buffer.add_subbytes r.buf r.chunk 0 n;
    true
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false

(* A complete buffered line, if any (without its newline). *)
let take_line r =
  let s = Buffer.contents r.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear r.buf;
    Buffer.add_substring r.buf s (i + 1) (String.length s - i - 1);
    Some (String.sub s 0 i)

(* The next line, waiting until [deadline] (monotonic ns); [None] on
   end of stream or timeout. *)
let rec next_line r ~deadline =
  match take_line r with
  | Some l -> Some l
  | None ->
    let left = float_of_int (deadline - Clock.now_ns ()) /. 1e9 in
    if left <= 0. then None
    else if select_read [ r.fd ] left = [] then None
    else if fill r then next_line r ~deadline
    else None

exception Peer_gone

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      raise Peer_gone

(* ----- the child process ----- *)

type child = { pid : int; err : reader; conns : reader array }

(* Children still running, stopped by [stop] or, on any exit path of
   the benchmark, by [kill_all]. *)
let live : int list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  live := List.filter (( <> ) pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  reader fd

(* Spawn the server and connect once it announces its port. *)
let spawn ~facile ~store =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let args =
    [ facile; "serve"; "--tcp"; "127.0.0.1:0" ]
    @ match store with None -> [] | Some p -> [ "--store"; p ]
  in
  let pid = Unix.create_process facile (Array.of_list args) null null w in
  live := pid :: !live;
  Unix.close w;
  Unix.close null;
  let err = reader r in
  let deadline = Clock.now_ns () + (60 * sec) in
  (* stderr carries {"config":..} and then {"listening":"host:port"} *)
  let rec port () =
    match next_line err ~deadline with
    | None -> failwith "facile serve exited or stalled before listening"
    | Some l ->
      (match Reply.field l "listening" with
       | None -> port ()
       | Some hp ->
         let hp = Reply.unquote hp in
         let i = String.rindex hp ':' in
         int_of_string (String.sub hp (i + 1) (String.length hp - i - 1)))
  in
  let port = port () in
  { pid; err; conns = Array.init connections (fun _ -> connect port) }

(* Close the connections, ask the server to drain and exit (SIGTERM),
   and wait for it; SIGKILL after ten seconds. *)
let stop c =
  Array.iter (fun r -> try Unix.close r.fd with Unix.Unix_error _ -> ()) c.conns;
  (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Clock.now_ns () + (10 * sec) in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] c.pid with
    | 0, _ when Clock.now_ns () < deadline ->
      (* drain stderr (the final stats snapshot) while waiting *)
      if select_read [ c.err.fd ] 0.005 <> [] && not (fill c.err) then
        Unix.sleepf 0.002;
      Buffer.clear c.err.buf;
      wait ()
    | 0, _ ->
      (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap c.pid
    | _ -> live := List.filter (( <> ) c.pid) !live
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  Unix.close c.err.fd

(* serve_hit's store, written by this build's own `facile batch
   --store`, one invocation per µarch. *)
let prepare_store ~facile path (set : Workload.key array) =
  if Sys.file_exists path then Sys.remove path;
  Array.iter
    (fun (cfg : Facile_uarch.Config.t) ->
      let lines =
        Array.to_list set
        |> List.filter (fun k -> k.Workload.cfg == cfg)
        |> List.map Workload.hex
      in
      let input = path ^ ".in" in
      Out_channel.with_open_bin input (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) lines);
      let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
      let pid =
        Unix.create_process facile
          [| facile; "batch"; "-q"; "-a"; cfg.Facile_uarch.Config.abbrev;
             "--store"; path; input |]
          null null Unix.stderr
      in
      Unix.close null;
      (match Unix.waitpid [] pid with
       | _, Unix.WEXITED 0 -> ()
       | _ -> failwith "facile batch --store failed while preparing the store");
      Sys.remove input)
    Workload.archs

(* One request on one connection, waiting for its reply (set-up path). *)
let round_trip r line =
  match write_all r.fd line 0 with
  | () -> next_line r ~deadline:(Clock.now_ns () + (30 * sec))
  | exception Peer_gone -> None

(* Spawn, connect, and send one warm-up request per µarch (each
   [(line, id, reference cycles)]); the set-up time runs from spawn to
   the last warm-up reply. *)
let setup ~facile ~store ~warmup (tally : Reply.tally) =
  let t0 = Clock.now_ns () in
  let c = spawn ~facile ~store in
  Array.iteri
    (fun j (line, id, cycles) ->
      tally.Reply.attempted <- tally.Reply.attempted + 1;
      match round_trip c.conns.(j mod connections) line with
      | None -> Reply.fail tally "missing"
      | Some reply -> Option.iter (Reply.fail tally) (Reply.check ~id ~cycles reply))
    warmup;
  (c, Clock.ns_to_s (Clock.now_ns () - t0))

(* The server's own counters, from {"cmd":"stats"}.  Absent fields
   read as 0, and so does every field of a server that no longer
   answers: its failed requests are already counted. *)
let stats c =
  match round_trip c.conns.(0) "{\"cmd\":\"stats\"}\n" with
  | None -> Json.Null
  | Some l ->
    (match Json.parse l with
     | Ok j -> Option.value ~default:Json.Null (Json.member "stats" j)
     | Error _ -> Json.Null)

let counter stats path =
  let rec go j = function
    | [] -> (match j with Json.Int n -> n | _ -> 0)
    | k :: rest ->
      (match Json.member k j with Some v -> go v rest | None -> 0)
  in
  go stats path

(* ----- the timed closed loop ----- *)

type phase = {
  lat_ns : int array;     (** per completed request, in completion order *)
  done_ns : int array;    (** completion time after the phase start *)
  marks : Host.marks;  (** CPU and steal readings at each whole second *)
  elapsed_ns : int;
  sent : int;
  exhausted : bool;       (** the prepared stream ran out *)
}

type slot = { r : reader; mutable op : int; mutable at : int }

(* Drive every connection for [seconds]: request [i] is [line i]
   ([None] once the stream is exhausted), its reply goes to
   [reply i line].  Requests in flight at the deadline are waited
   for; a reply missing after ten seconds fails its request and
   retires the connection.  [cpu] reads the server's CPU time;
   [progress n] runs when the [n]th reply is in. *)
let closed_loop c ~seconds ~line ~reply ~cpu ~progress (tally : Reply.tally) =
  let timeout_ns = 10 * sec in
  let lat = Ivec.create () and done_ = Ivec.create () in
  let next = ref 0 and exhausted = ref false in
  let slots = Array.map (fun r -> { r; op = -1; at = 0 }) c.conns in
  let t_start = Clock.now_ns () in
  let m = Host.marks ~cpu ~seconds ~t_start in
  let deadline = t_start + (seconds * sec) in
  let send s =
    if Clock.now_ns () < deadline && not !exhausted then
      match line !next with
      | None -> exhausted := true
      | Some l ->
        s.op <- !next;
        incr next;
        tally.Reply.attempted <- tally.Reply.attempted + 1;
        s.at <- Clock.now_ns ();
        (try write_all s.r.fd l 0
         with Peer_gone ->
           Reply.fail tally "missing";
           s.op <- -1)
  in
  Array.iter send slots;
  let busy () = List.filter (fun s -> s.op >= 0) (Array.to_list slots) in
  let rec loop () =
    match busy () with
    | [] -> ()
    | active ->
      let ready = select_read (List.map (fun s -> s.r.fd) active) 1.0 in
      List.iter
        (fun s ->
          if List.mem s.r.fd ready then begin
            if not (fill s.r) then begin
              Reply.fail tally "missing";
              s.op <- -1
            end
            else
              match take_line s.r with
              | None -> ()
              | Some l ->
                let now = Clock.now_ns () in
                Ivec.push lat (now - s.at);
                Ivec.push done_ (now - t_start);
                progress (Ivec.length lat);
                reply s.op l;
                s.op <- -1;
                send s
          end
          else if Clock.now_ns () - s.at > timeout_ns then begin
            Reply.fail tally "timeout";
            s.op <- -1
          end)
        active;
      Host.mark m;
      loop ()
  in
  loop ();
  let elapsed_ns = Clock.now_ns () - t_start in
  { lat_ns = Ivec.to_array lat;
    done_ns = Ivec.to_array done_;
    marks = Host.close_marks m;
    elapsed_ns;
    sent = !next;
    exhausted = !exhausted }
