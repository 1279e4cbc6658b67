open Facile_uarch
module Err = Facile_x86.Err
module Json = Facile_obs.Json
module Fault = Facile_engine.Fault
module Db = Facile_db.Db
module Flat = Facile_db.Flat

(* ----- model/table/config fingerprint -----

   FNV-1a 64 over every value that can change a prediction: the model's
   revision ([Model.revision], bumped with any change to the model's
   code that moves a prediction), every config field, and the
   descriptor of every enumerated form on all nine arches, as
   [Flat.table] holds it.  Descriptors and µops are read through
   complete record patterns, so a field added to [Db.t] or [Db.uop]
   does not compile here until the fingerprint covers it.  The slot
   hashtable is skipped: it is a function of the forms and their
   descriptors.  The hash is content-based, not build-id-based, so a
   rebuild with an identical model and tables keeps its caches warm. *)

let fnv_prime = 0x100000001B3L
let fnv_basis = 0xCBF29CE484222325L

let fingerprint_of_model () =
  (* The hash lives in an 8-byte buffer, so that each step reads,
     multiplies and writes it back unboxed. *)
  let h = Bytes.create 8 in
  Bytes.set_int64_ne h 0 fnv_basis;
  let byte b =
    Bytes.set_int64_ne h 0
      (Int64.mul
         (Int64.logxor (Bytes.get_int64_ne h 0) (Int64.of_int (b land 0xFF)))
         fnv_prime)
  in
  let int v =
    for i = 0 to 7 do
      byte (v asr (8 * i))
    done
  in
  let bool v = byte (if v then 1 else 0) in
  let str s =
    int (String.length s);
    String.iter (fun c -> byte (Char.code c)) s
  in
  let port p = int (p : Port.t :> int) in
  let uop { Db.kind; ports } =
    int
      (match kind with
       | Db.Load -> 0
       | Db.Compute -> 1
       | Db.Store_addr -> 2
       | Db.Store_data -> 3
       | Db.Div_pseudo -> 4);
    port ports
  in
  let desc
      { Db.fused_uops; issued_uops; dispatched; latency; complex_decode;
        available_simple_dec; eliminated; zero_idiom; macro_fusible } =
    int fused_uops;
    int issued_uops;
    int (List.length dispatched);
    List.iter uop dispatched;
    int latency;
    bool complex_decode;
    int available_simple_dec;
    bool eliminated;
    bool zero_idiom;
    bool macro_fusible
  in
  int Facile_core.Model.revision;
  List.iter
    (fun cfg ->
      str cfg.Config.abbrev;
      int cfg.Config.released;
      int cfg.Config.n_decoders;
      int cfg.Config.predecode_width;
      int cfg.Config.issue_width;
      int cfg.Config.dsb_width;
      int cfg.Config.idq_size;
      bool cfg.Config.lsd_enabled;
      int cfg.Config.lsd_unroll_max;
      int cfg.Config.lsd_unroll_target;
      bool cfg.Config.macro_fusible_on_last_decoder;
      bool cfg.Config.macro_fusion;
      bool cfg.Config.jcc_erratum;
      bool cfg.Config.mov_elim_gpr;
      bool cfg.Config.mov_elim_vec;
      bool cfg.Config.unlamination_simple_ok;
      int cfg.Config.rob_size;
      int cfg.Config.rs_size;
      int cfg.Config.load_latency;
      bool cfg.Config.has_avx2_fma;
      port cfg.Config.ports;
      List.iter (fun (n, p) -> str n; port p)
        (Config.pm_fields cfg.Config.pm);
      Array.iter
        (function None -> bool false | Some d -> bool true; desc d)
        (Flat.table cfg).Flat.descs)
    Config.all;
  Bytes.get_int64_ne h 0

let fingerprint =
  let fp = lazy (fingerprint_of_model ()) in
  fun () -> Lazy.force fp

(* ----- scan reports ----- *)

type report = {
  records : Codec.record list;
  frames_ok : int;
  quarantined : int;
  undecodable : int;
  torn_tail : int;
  file_size : int;
  good_end : int;
  stored_fingerprint : int64;
}

let report_clean r =
  r.quarantined = 0 && r.undecodable = 0 && r.torn_tail = 0

let report_to_json r =
  Json.Obj
    [ "records", Json.Int (List.length r.records);
      "frames_ok", Json.Int r.frames_ok;
      "quarantined", Json.Int r.quarantined;
      "undecodable", Json.Int r.undecodable;
      "torn_tail_bytes", Json.Int r.torn_tail;
      "file_size", Json.Int r.file_size;
      "good_end", Json.Int r.good_end;
      "fingerprint", Json.Str (Printf.sprintf "%016Lx" r.stored_fingerprint);
      "clean", Json.Bool (report_clean r) ]

let err kind fmt = Printf.ksprintf (fun msg -> Error (Err.v kind msg)) fmt

let read_file path =
  match
    (* a directory opens, then fails to read with an errno that does
       not name it *)
    if Sys.is_directory path then raise (Sys_error (path ^ ": Is a directory"));
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> Ok s
  | exception Sys_error m -> err Err.Internal "%s" m

let check_header ?(check_fingerprint = true) path content =
  match Segment.decode_header content with
  | Error (Segment.Version_skew _ as e) ->
    err Err.Store_skew "%s: %s" path (Segment.header_error_to_string e)
  | Error e ->
    err Err.Check_failed "%s: %s" path (Segment.header_error_to_string e)
  | Ok fp ->
    if check_fingerprint && fp <> fingerprint () then
      err Err.Store_skew
        "%s: written against model/tables %016Lx, this build is %016Lx"
        path fp (fingerprint ())
    else Ok fp

let scan_to_report content stored_fingerprint =
  let s = Segment.scan content in
  let quarantined, torn =
    List.fold_left
      (fun (q, t) f ->
        match f with
        | Segment.Crc_mismatch _ -> (q + 1, t)
        | Segment.Torn_tail { remaining; _ } -> (q, t + remaining))
      (0, 0) s.Segment.findings
  in
  (* each record is decoded where its frame lies in [content], which
     no record refers to afterwards *)
  let records = ref [] and undecodable = ref 0 in
  List.iter
    (fun f ->
      match
        Codec.decode_sub content (Segment.payload_off f) f.Segment.len
      with
      | Ok r -> records := r :: !records
      | Error _ -> incr undecodable)
    s.Segment.frames;
  { records = List.rev !records;
    frames_ok = List.length s.Segment.frames;
    quarantined;
    undecodable = !undecodable;
    torn_tail = torn;
    file_size = String.length content;
    good_end = s.Segment.good_end;
    stored_fingerprint }

let load ?check_fingerprint path =
  let ( let* ) = Result.bind in
  let* content = read_file path in
  let* fp = check_header ?check_fingerprint path content in
  Ok (scan_to_report content fp)

(* ----- writer ----- *)

type writer = {
  fd : Unix.file_descr;
  wpath : string;
  seen : (Facile_engine.Engine.memo_key, unit) Hashtbl.t;
  mutable closed : bool; (* lint: unguarded — writer is single-owner; Serve serializes flushes *)
}

let path w = w.wpath
let seen_count w = Hashtbl.length w.seen

let io_fail w fmt =
  Printf.ksprintf
    (fun msg -> Err.raise_err Err.Internal (w.wpath ^ ": " ^ msg))
    fmt

(* Full write with the store fault points applied first.  A short
   write leaves its prefix on disk — exactly what a crash mid-append
   does — and then surfaces as an error. *)
let write_all w s =
  (match Fault.draw "store.enospc" with
   | Some _ -> io_fail w "write: no space left on device (injected)"
   | None -> ());
  let n = String.length s in
  let upto =
    match Fault.draw "store.short_write" with
    | Some r when n > 0 -> r mod n  (* strictly less than the frame *)
    | _ -> n
  in
  let b = Bytes.of_string s in
  let written = ref 0 in
  (try
     while !written < upto do
       written := !written + Unix.write w.fd b !written (upto - !written)
     done
   with Unix.Unix_error (e, _, _) ->
     io_fail w "write: %s" (Unix.error_message e));
  if upto < n then io_fail w "short write (%d of %d bytes, injected)" upto n

let open_rw p =
  let ( let* ) = Result.bind in
  let* existing =
    if Sys.file_exists p then Result.map Option.some (read_file p)
    else Ok None
  in
  let* recovered =
    match existing with
    | Some c when String.length c >= Segment.header_size ->
      let* fp = check_header p c in
      Ok (Some (scan_to_report c fp))
    | _ ->
      (* New store, or a file shorter than one header: a crash during
         creation can leave a torn header, and no frame can precede it,
         so rewriting from scratch loses nothing. *)
      Ok None
  in
  match
    let fd = Unix.openfile p [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
    let records =
      match recovered with Some r -> r.records | None -> []
    in
    (* sized for every recovered key, so it never grows while they go in *)
    let seen = Hashtbl.create (max 256 (List.length records)) in
    let w = { fd; wpath = p; seen; closed = false } in
    let report =
      match recovered with
      | Some r ->
        (* Recovery: drop the torn tail (no-op when the store was
           clean). *)
        Unix.ftruncate fd r.good_end;
        { r with torn_tail = 0; file_size = r.good_end }
      | None ->
        let header = Segment.encode_header ~fingerprint:(fingerprint ()) in
        let n = String.length header in
        Unix.ftruncate fd n;
        if Unix.write_substring fd header 0 n <> n then
          io_fail w "short header write";
        { records = []; frames_ok = 0; quarantined = 0; undecodable = 0;
          torn_tail = 0; file_size = n; good_end = n;
          stored_fingerprint = fingerprint () }
    in
    ignore (Unix.lseek fd 0 Unix.SEEK_END);
    List.iter
      (fun rec_ ->
        let k, _ = Codec.to_memo rec_ in
        Hashtbl.replace seen k ())
      records;
    (w, report)
  with
  | wr -> Ok wr
  | exception Unix.Unix_error (e, fn, _) ->
    err Err.Internal "%s: %s: %s" p fn (Unix.error_message e)
  | exception Err.Error e -> Error e

let append w r =
  if w.closed then Err.raise_err Err.Internal (w.wpath ^ ": writer is closed");
  write_all w (Segment.encode_frame (Codec.encode r));
  let k, _ = Codec.to_memo r in
  Hashtbl.replace w.seen k ()

let sync_memo w entries =
  let fresh =
    List.filter (fun (k, _) -> not (Hashtbl.mem w.seen k)) entries
  in
  (* memo_entries is most-recent first; append oldest first so file
     order stays recency order and a warm load replays it exactly. *)
  List.iter (fun e -> append w (Codec.of_memo e)) (List.rev fresh);
  let n = List.length fresh in
  if n > 0 then Unix.fsync w.fd;
  n

let close w =
  if not w.closed then begin
    w.closed <- true;
    (try Unix.fsync w.fd with Unix.Unix_error _ -> ());
    Unix.close w.fd
  end
