(* Persistent prediction store: codec bit-identity, segment recovery
   policy (quarantine vs torn tail), fault-injected write failures,
   warm-restart equality, and the CLI exit-code contract.

   Everything here runs against real temp files — the recovery rules
   are only meaningful on actual file contents, so the tests craft
   damage byte-by-byte rather than mocking the scanner. *)

open Facile_uarch
open Facile_core
open Facile_engine
module Crc32 = Facile_store.Crc32
module Codec = Facile_store.Codec
module Segment = Facile_store.Segment
module Store = Facile_store.Store
module Err = Facile_x86.Err
module Json = Facile_obs.Json

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let with_temp f =
  let path = Filename.temp_file "facile_test_store" ".seg" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let block_of_hex cfg h =
  match Facile_x86.Hex.decode h with
  | Ok bytes -> Block.of_bytes cfg bytes
  | Error _ -> Alcotest.failf "bad hex %s" h

(* A real record: run the model so predictions carry genuine
   bottleneck/value structure, not synthetic placeholders. *)
let mk_record ?(arch = Config.SKL) ?(mode = `Unrolled) hex =
  let cfg = Config.by_arch arch in
  let b = block_of_hex cfg hex in
  { Codec.arch;
    mode;
    insts = Block.instruction_count b;
    bytes = b.Block.bytes;
    pred = Model.predict ~notion:mode b }

let records_for_suite () =
  [ mk_record "4801d8";                           (* add rax,rbx *)
    mk_record ~arch:Config.HSW ~mode:`Loop "4829d8";
    mk_record ~arch:Config.TGL ~mode:`Auto "48c7c02a000000"; (* mov rax,42 *)
    mk_record ~arch:Config.ICL ~mode:`Loop "90" ]

let record_equal (a : Codec.record) (b : Codec.record) =
  a.Codec.arch = b.Codec.arch && a.Codec.mode = b.Codec.mode
  && a.Codec.insts = b.Codec.insts
  && String.equal a.Codec.bytes b.Codec.bytes
  && Codec.pred_equal a.Codec.pred b.Codec.pred

let check_load_ok path =
  match Store.load path with
  | Ok r -> r
  | Error e -> Alcotest.failf "load failed: %s" (Err.to_string e)

let check_load_err path =
  match Store.load path with
  | Ok _ -> Alcotest.fail "load accepted a store it must refuse"
  | Error e -> e

(* Write [records] to a fresh store at [path]. *)
let populate path records =
  match Store.open_rw path with
  | Error e -> Alcotest.failf "open_rw failed: %s" (Err.to_string e)
  | Ok (w, _) ->
    Fun.protect
      ~finally:(fun () -> Store.close w)
      (fun () -> List.iter (Store.append w) records)

(* Flip one bit inside a file at byte [off]. *)
let flip_bit path off =
  let s = Bytes.of_string (read_file path) in
  Bytes.set s off (Char.chr (Char.code (Bytes.get s off) lxor 0x40));
  write_file path (Bytes.to_string s)

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)

let crc_tests =
  [ Alcotest.test_case "IEEE known-answer vector" `Quick (fun () ->
        Alcotest.(check int32) "123456789" 0xCBF43926l
          (Int32.of_int (Crc32.string "123456789" land 0xFFFFFFFF)));
    Alcotest.test_case "sub window equals string of slice" `Quick (fun () ->
        let s = "the quick brown fox jumps over the lazy dog" in
        Alcotest.(check int) "slice" (Crc32.string (String.sub s 4 11))
          (Crc32.sub s 4 11));
    Alcotest.test_case "empty string" `Quick (fun () ->
        Alcotest.(check int) "crc('')" 0 (Crc32.string ""));
    Alcotest.test_case "single-bit sensitivity" `Quick (fun () ->
        Alcotest.(check bool) "differs" true
          (Crc32.string "facile\x00" <> Crc32.string "facile\x01")) ]

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)

(* A record whose prediction has two bottlenecks. *)
let two_bottlenecks () =
  let r = mk_record "4801d8" in
  { r with
    Codec.pred =
      Model.make ~cycles:2.0
        ~value:(fun c ->
          match c with Model.Issue | Model.Ports -> 2.0 | _ -> 0.5)
        ~bottlenecks:[ Model.Issue; Model.Ports ] ~fe_path:Model.FE_none }

(* The store's component codes: wire format, pinned here. *)
let component_code = function
  | Model.Predec -> 0 | Model.Dec -> 1 | Model.DSB -> 2 | Model.LSD -> 3
  | Model.Issue -> 4 | Model.Ports -> 5 | Model.Precedence -> 6

(* [r]'s binary encoding with its bottleneck list and value table
   spelled as given. *)
let with_tables (r : Codec.record) ~bottlenecks ~values =
  let s = Codec.encode r in
  (* arch, mode, insts, length-prefixed bytes, cycles, fe_path *)
  let head = 1 + 1 + 4 + 4 + String.length r.Codec.bytes + 8 + 1 in
  let b = Buffer.create 128 in
  Buffer.add_string b (String.sub s 0 head);
  Buffer.add_uint8 b (List.length bottlenecks);
  List.iter (fun c -> Buffer.add_uint8 b (component_code c)) bottlenecks;
  Buffer.add_uint8 b (List.length values);
  List.iter
    (fun (c, v) ->
      Buffer.add_uint8 b (component_code c);
      Buffer.add_int64_le b (Int64.bits_of_float v))
    values;
  Buffer.contents b

(* [r]'s NDJSON object with its prediction's bottleneck array and value
   object passed through [bottlenecks] and [values]. *)
let edit_json r ~bottlenecks ~values =
  let edit = function
    | "bottlenecks", Json.Arr l -> ("bottlenecks", Json.Arr (bottlenecks l))
    | "values", Json.Obj kvs -> ("values", Json.Obj (values kvs))
    | kv -> kv
  in
  match Codec.to_json r with
  | Json.Obj fields ->
    Json.Obj
      (List.map
         (function
           | "prediction", Json.Obj p ->
             ("prediction", Json.Obj (List.map edit p))
           | kv -> kv)
         fields)
  | _ -> Alcotest.fail "a record's JSON is not an object"

let codec_tests =
  [ Alcotest.test_case "binary encode/decode is identity" `Quick (fun () ->
        List.iter
          (fun r ->
            match Codec.decode (Codec.encode r) with
            | Ok r' ->
              Alcotest.(check bool) "bit-identical" true (record_equal r r')
            | Error m -> Alcotest.failf "decode failed: %s" m)
          (records_for_suite ()));
    Alcotest.test_case "JSON export/import is identity" `Quick (fun () ->
        List.iter
          (fun r ->
            match Codec.of_json (Codec.to_json r) with
            | Ok r' ->
              Alcotest.(check bool) "bit-identical" true (record_equal r r')
            | Error m -> Alcotest.failf "of_json failed: %s" m)
          (records_for_suite ()));
    Alcotest.test_case "memo round trip preserves the key" `Quick (fun () ->
        List.iter
          (fun r ->
            let r' = Codec.of_memo (Codec.to_memo r) in
            Alcotest.(check bool) "same record" true (record_equal r r'))
          (records_for_suite ()));
    Alcotest.test_case "trailing bytes are rejected" `Quick (fun () ->
        let s = Codec.encode (mk_record "4801d8") ^ "\x00" in
        match Codec.decode s with
        | Ok _ -> Alcotest.fail "accepted trailing byte"
        | Error _ -> ());
    Alcotest.test_case "unknown arch code is rejected" `Quick (fun () ->
        let s = Bytes.of_string (Codec.encode (mk_record "4801d8")) in
        Bytes.set s 0 '\xFF';
        match Codec.decode (Bytes.to_string s) with
        | Ok _ -> Alcotest.fail "accepted arch code 255"
        | Error _ -> ());
    Alcotest.test_case "truncation at every length is rejected" `Quick
      (fun () ->
        let s = Codec.encode (mk_record ~arch:Config.HSW "4829d8") in
        for n = 0 to String.length s - 1 do
          match Codec.decode (String.sub s 0 n) with
          | Ok _ -> Alcotest.failf "accepted %d-byte prefix" n
          | Error _ -> ()
        done);
    Alcotest.test_case "component lists in any order are the same record"
      `Quick (fun () ->
        let r = two_bottlenecks () in
        let values = List.map (fun c -> (c, Model.value r.Codec.pred c)) in
        Alcotest.(check string) "the encoder's own order"
          (Codec.encode r)
          (with_tables r ~bottlenecks:[ Model.Issue; Model.Ports ]
             ~values:(values Model.all_components));
        let reordered =
          with_tables r ~bottlenecks:[ Model.Ports; Model.Issue ]
            ~values:(values (List.rev Model.all_components))
        in
        (match Codec.decode reordered with
         | Ok r' ->
           Alcotest.(check bool) "same record" true (record_equal r r');
           Alcotest.(check string) "re-encodes in order" (Codec.encode r)
             (Codec.encode r')
         | Error m -> Alcotest.failf "decode failed: %s" m);
        let json =
          edit_json r
            ~bottlenecks:(fun l -> List.rev l)
            ~values:(fun kvs -> List.rev kvs)
        in
        match Codec.of_json json with
        | Ok r' -> Alcotest.(check bool) "same record" true (record_equal r r')
        | Error m -> Alcotest.failf "of_json failed: %s" m);
    Alcotest.test_case "a component missing or repeated is a bad record"
      `Quick (fun () ->
        let r = two_bottlenecks () in
        let value c = (c, Model.value r.Codec.pred c) in
        let without_ports =
          List.filter (( <> ) Model.Ports) Model.all_components
        in
        let bad =
          [ ( "no value for Ports",
              [ Model.Issue; Model.Ports ], List.map value without_ports );
            ( "value of Dec given twice",
              [ Model.Issue; Model.Ports ],
              List.map value (Model.Dec :: without_ports) );
            ( "value of Ports given twice",
              [ Model.Issue; Model.Ports ],
              List.map value (Model.Ports :: Model.all_components) );
            ( "bottleneck Ports listed twice",
              [ Model.Issue; Model.Ports; Model.Ports ],
              List.map value Model.all_components ) ]
        in
        List.iter
          (fun (msg, bottlenecks, values) ->
            (match Codec.decode (with_tables r ~bottlenecks ~values) with
             | Ok _ -> Alcotest.failf "binary: accepted a record with %s" msg
             | Error m -> Alcotest.(check string) "binary" msg m);
            let json =
              edit_json r
                ~bottlenecks:(fun _ ->
                  List.map
                    (fun c -> Json.Str (Model.component_name c))
                    bottlenecks)
                ~values:(fun _ ->
                  List.map
                    (fun (c, v) -> (Model.component_name c, Json.Float v))
                    values)
            in
            match Codec.of_json json with
            | Ok _ -> Alcotest.failf "NDJSON: accepted a record with %s" msg
            | Error m ->
              Alcotest.(check string) "NDJSON" ("prediction: " ^ msg) m)
          bad) ]

(* ------------------------------------------------------------------ *)
(* Segment scanning                                                    *)

let segment_tests =
  [ Alcotest.test_case "header round trip" `Quick (fun () ->
        let h = Segment.encode_header ~fingerprint:0x0123456789ABCDEFL in
        Alcotest.(check int) "size" Segment.header_size (String.length h);
        match Segment.decode_header h with
        | Ok fp -> Alcotest.(check int64) "fp" 0x0123456789ABCDEFL fp
        | Error e -> Alcotest.failf "%s" (Segment.header_error_to_string e));
    Alcotest.test_case "header rejects damage and skew" `Quick (fun () ->
        let h = Segment.encode_header ~fingerprint:1L in
        let damaged pos c =
          let b = Bytes.of_string h in
          Bytes.set b pos c;
          Bytes.to_string b
        in
        (match Segment.decode_header (damaged 0 'X') with
         | Error Segment.Bad_magic -> ()
         | _ -> Alcotest.fail "bad magic accepted");
        (match Segment.decode_header (damaged 12 '\xFF') with
         | Error Segment.Bad_crc -> ()
         | _ -> Alcotest.fail "flipped fingerprint byte not caught by crc");
        (match Segment.decode_header (String.sub h 0 10) with
         | Error (Segment.Truncated 10) -> ()
         | _ -> Alcotest.fail "short header accepted");
        (* version bump with a recomputed crc must decode as skew *)
        let b = Bytes.of_string h in
        Bytes.set_int32_le b 8 (Int32.of_int (Segment.version + 1));
        Bytes.set_int32_le b 20
          (Int32.of_int (Crc32.sub (Bytes.to_string b) 0 20));
        match Segment.decode_header (Bytes.to_string b) with
        | Error (Segment.Version_skew { found; expected }) ->
          Alcotest.(check int) "found" (Segment.version + 1) found;
          Alcotest.(check int) "expected" Segment.version expected
        | _ -> Alcotest.fail "version skew accepted");
    Alcotest.test_case "scan quarantines a middle frame, keeps the rest"
      `Quick (fun () ->
        let header = Segment.encode_header ~fingerprint:0L in
        let payloads = [ "alpha"; "bravo"; "charlie" ] in
        let file =
          header ^ String.concat "" (List.map Segment.encode_frame payloads)
        in
        (* flip a payload bit of frame 2 (offset: header + frame1 + 8) *)
        let off =
          Segment.header_size + (8 + String.length "alpha") + 8
        in
        let b = Bytes.of_string file in
        Bytes.set b off 'B';
        let scan = Segment.scan (Bytes.to_string b) in
        Alcotest.(check (list string)) "survivors" [ "alpha"; "charlie" ]
          (List.map snd scan.Segment.frames);
        (match scan.Segment.findings with
         | [ Segment.Crc_mismatch { len; _ } ] ->
           Alcotest.(check int) "len" 5 len
         | _ -> Alcotest.fail "expected exactly one quarantine finding");
        Alcotest.(check int) "good_end is EOF" (String.length file)
          scan.Segment.good_end);
    Alcotest.test_case "scan stops at an implausible length" `Quick (fun () ->
        let header = Segment.encode_header ~fingerprint:0L in
        let good = Segment.encode_frame "ok" in
        let bogus = Bytes.create 8 in
        Bytes.set_int32_le bogus 0 (Int32.of_int (Segment.max_frame + 1));
        Bytes.set_int32_le bogus 4 0l;
        let file = header ^ good ^ Bytes.to_string bogus ^ "junk" in
        let scan = Segment.scan file in
        Alcotest.(check (list string)) "frames before damage" [ "ok" ]
          (List.map snd scan.Segment.frames);
        Alcotest.(check int) "good_end before damage"
          (Segment.header_size + String.length good)
          scan.Segment.good_end;
        match scan.Segment.findings with
        | [ Segment.Torn_tail { off; remaining } ] ->
          Alcotest.(check int) "off" scan.Segment.good_end off;
          Alcotest.(check int) "remaining" 12 remaining
        | _ -> Alcotest.fail "expected a torn-tail finding") ]

(* ------------------------------------------------------------------ *)
(* Store recovery                                                      *)

let recovery_tests =
  [ Alcotest.test_case "append then load is bit-identical" `Quick (fun () ->
        with_temp @@ fun path ->
        let records = records_for_suite () in
        populate path records;
        let r = check_load_ok path in
        Alcotest.(check bool) "clean" true (Store.report_clean r);
        Alcotest.(check int) "count" (List.length records)
          (List.length r.Store.records);
        List.iter2
          (fun a b ->
            Alcotest.(check bool) "record equal" true (record_equal a b))
          records r.Store.records);
    Alcotest.test_case "every torn-tail truncation point recovers" `Quick
      (fun () ->
        (* chop the file at every length between "last frame intact"
           and EOF: each prefix must load as exactly the intact frames,
           and open_rw must truncate to that and resume appending *)
        with_temp @@ fun path ->
        let records = records_for_suite () in
        populate path records;
        let whole = read_file path in
        let r0 = check_load_ok path in
        let last_start =
          (* offset where the final frame begins *)
          let all_but_last =
            List.filteri
              (fun i _ -> i < List.length records - 1)
              records
          in
          Segment.header_size
          + List.fold_left
              (fun acc r ->
                acc + 8 + String.length (Codec.encode r))
              0 all_but_last
        in
        Alcotest.(check int) "file accounted for" r0.Store.file_size
          (String.length whole);
        for cut = last_start + 1 to String.length whole - 1 do
          write_file path (String.sub whole 0 cut);
          let r = check_load_ok path in
          Alcotest.(check int) "lost exactly the last frame"
            (List.length records - 1)
            (List.length r.Store.records);
          Alcotest.(check bool) "torn tail reported" true
            (r.Store.torn_tail > 0);
          Alcotest.(check int) "good_end" last_start r.Store.good_end;
          (* reopen: truncates, resumes, and the re-appended record
             brings the store back to full strength *)
          (match Store.open_rw path with
           | Error e -> Alcotest.failf "recovery open: %s" (Err.to_string e)
           | Ok (w, rep) ->
             Alcotest.(check bool) "recovered clean" true
               (Store.report_clean rep);
             Store.append w (List.nth records (List.length records - 1));
             Store.close w);
          let r' = check_load_ok path in
          Alcotest.(check bool) "clean after repair" true
            (Store.report_clean r');
          Alcotest.(check int) "full strength" (List.length records)
            (List.length r'.Store.records)
        done);
    Alcotest.test_case "corrupt frame is quarantined, not served" `Quick
      (fun () ->
        with_temp @@ fun path ->
        let records = records_for_suite () in
        populate path records;
        (* damage the first payload byte of frame 1 *)
        flip_bit path (Segment.header_size + 8);
        let r = check_load_ok path in
        Alcotest.(check int) "quarantined" 1 r.Store.quarantined;
        Alcotest.(check int) "served" (List.length records - 1)
          (List.length r.Store.records);
        Alcotest.(check bool) "not clean" false (Store.report_clean r);
        (* the quarantined frame survives a reopen (no truncation) *)
        (match Store.open_rw path with
         | Error e -> Alcotest.failf "reopen: %s" (Err.to_string e)
         | Ok (w, rep) ->
           Alcotest.(check int) "still quarantined" 1 rep.Store.quarantined;
           Store.close w);
        let r' = check_load_ok path in
        Alcotest.(check int) "still quarantined after reopen" 1
          r'.Store.quarantined);
    Alcotest.test_case "fingerprint skew is refused with exit code 12"
      `Quick (fun () ->
        with_temp @@ fun path ->
        let fp = Int64.lognot (Store.fingerprint ()) in
        write_file path
          (Segment.encode_header ~fingerprint:fp
          ^ Segment.encode_frame (Codec.encode (mk_record "90")));
        let e = check_load_err path in
        Alcotest.(check bool) "Store_skew" true (e.Err.kind = Err.Store_skew);
        Alcotest.(check int) "exit code" 12 (Err.exit_code e.Err.kind);
        (* a writer must refuse too — never append to a foreign store *)
        (match Store.open_rw path with
         | Ok (w, _) -> Store.close w; Alcotest.fail "open_rw accepted skew"
         | Error e' ->
           Alcotest.(check bool) "writer refuses" true
             (e'.Err.kind = Err.Store_skew));
        (* but a fingerprint-blind inspection load still works *)
        match Store.load ~check_fingerprint:false path with
        | Ok r ->
          Alcotest.(check int64) "stored fp visible" fp
            r.Store.stored_fingerprint
        | Error e' -> Alcotest.failf "blind load: %s" (Err.to_string e'));
    Alcotest.test_case "corrupt header is refused as Check_failed" `Quick
      (fun () ->
        with_temp @@ fun path ->
        populate path [ mk_record "90" ];
        flip_bit path 2;  (* inside the magic *)
        let e = check_load_err path in
        Alcotest.(check bool) "Check_failed" true
          (e.Err.kind = Err.Check_failed)) ]

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

(* The fault table is process-global: always clear it, also on
   failure, or later suites inherit the injection. *)
let with_fault spec f =
  Fault.configure spec;
  Fun.protect ~finally:Fault.clear f

let fault_tests =
  [ Alcotest.test_case "short write tears the tail; reopen recovers"
      `Quick (fun () ->
        with_temp @@ fun path ->
        let r1 = mk_record "4801d8" and r2 = mk_record "4829d8" in
        populate path [ r1 ];
        let size_before = (Unix.stat path).Unix.st_size in
        (match Store.open_rw path with
         | Error e -> Alcotest.failf "open: %s" (Err.to_string e)
         | Ok (w, _) ->
           Fun.protect ~finally:(fun () -> Store.close w) @@ fun () ->
           with_fault "store.short_write:1:7:1" @@ fun () ->
           match Store.append w r2 with
           | () -> Alcotest.fail "short write did not surface"
           | exception Err.Error e ->
             Alcotest.(check bool) "Internal" true
               (e.Err.kind = Err.Internal));
        (* some prefix of the frame hit the disk: the file grew but the
           new frame must not be served *)
        let size_after = (Unix.stat path).Unix.st_size in
        Alcotest.(check bool) "partial bytes on disk" true
          (size_after > size_before);
        let r = check_load_ok path in
        Alcotest.(check int) "only the old record" 1
          (List.length r.Store.records);
        Alcotest.(check bool) "torn" true (r.Store.torn_tail > 0);
        (* recovery: reopen truncates, the retry lands cleanly *)
        (match Store.open_rw path with
         | Error e -> Alcotest.failf "reopen: %s" (Err.to_string e)
         | Ok (w, rep) ->
           Alcotest.(check bool) "recovered" true (Store.report_clean rep);
           Store.append w r2;
           Store.close w);
        let r' = check_load_ok path in
        Alcotest.(check bool) "clean" true (Store.report_clean r');
        Alcotest.(check int) "both records" 2 (List.length r'.Store.records));
    Alcotest.test_case "enospc surfaces before any byte is written" `Quick
      (fun () ->
        with_temp @@ fun path ->
        populate path [ mk_record "90" ];
        let size_before = (Unix.stat path).Unix.st_size in
        (match Store.open_rw path with
         | Error e -> Alcotest.failf "open: %s" (Err.to_string e)
         | Ok (w, _) ->
           Fun.protect ~finally:(fun () -> Store.close w) @@ fun () ->
           with_fault "store.enospc:1:3:1" @@ fun () ->
           match Store.append w (mk_record "4801d8") with
           | () -> Alcotest.fail "enospc did not surface"
           | exception Err.Error e ->
             Alcotest.(check bool) "Internal" true
               (e.Err.kind = Err.Internal));
        Alcotest.(check int) "file untouched" size_before
          (Unix.stat path).Unix.st_size;
        Alcotest.(check bool) "still clean" true
          (Store.report_clean (check_load_ok path)));
    Alcotest.test_case "read fault quarantines instead of serving garbage"
      `Quick (fun () ->
        with_temp @@ fun path ->
        populate path (records_for_suite ());
        let r =
          with_fault "store.read:1:11:1" @@ fun () -> check_load_ok path
        in
        Alcotest.(check int) "one frame quarantined" 1 r.Store.quarantined;
        Alcotest.(check int) "rest served" 3 (List.length r.Store.records);
        (* the file itself is undamaged — a clean re-read proves the
           flip happened in memory, as real media corruption would *)
        Alcotest.(check bool) "file clean" true
          (Store.report_clean (check_load_ok path))) ]

(* ------------------------------------------------------------------ *)
(* Warm restart equality                                               *)

let warm_tests =
  [ Alcotest.test_case "warm-seeded engine serves bit-identical hits"
      `Quick (fun () ->
        with_temp @@ fun path ->
        let cfg = Config.by_arch Config.SKL in
        let blocks = List.map (block_of_hex cfg) [ "4801d8"; "4829d8"; "90" ] in
        (* cold engine: compute, then persist its memo table *)
        let cold_preds =
          Engine.with_pool ~workers:1 (fun t ->
              let ps = List.map (Engine.predict t ~mode:`Auto) blocks in
              (match Store.open_rw path with
               | Error e -> Alcotest.failf "open: %s" (Err.to_string e)
               | Ok (w, _) ->
                 let n = Store.sync_memo w (Engine.memo_entries t) in
                 Store.close w;
                 Alcotest.(check int) "all persisted" 3 n);
              ps)
        in
        (* warm engine: seed from the store, predict again *)
        let report = check_load_ok path in
        Engine.with_pool ~workers:1 (fun t ->
            Engine.memo_seed t
              (List.rev_map Codec.to_memo report.Store.records);
            let warm_preds = List.map (Engine.predict t ~mode:`Auto) blocks in
            let { Engine.hits; misses; _ } = Engine.cache_stats t in
            Alcotest.(check int) "every block a hit" 3 hits;
            Alcotest.(check int) "no recompute" 0 misses;
            List.iter2
              (fun a b ->
                Alcotest.(check bool) "bit-identical" true
                  (Codec.pred_equal a b))
              cold_preds warm_preds));
    Alcotest.test_case "warm restart is shard-count agnostic" `Quick
      (fun () ->
        (* persist from a 4-shard cache, re-seed engines with different
           shard counts: every block must still be a bit-identical hit,
           whatever shard its key lands in after the restart *)
        with_temp @@ fun path ->
        let cfg = Config.by_arch Config.SKL in
        let blocks =
          List.map (block_of_hex cfg)
            [ "4801d8"; "4829d8"; "90"; "4801c8"; "4831c0"; "4889c3" ]
        in
        let cold_preds =
          Engine.with_pool ~workers:1 ~cache_shards:4 (fun t ->
              let ps = List.map (Engine.predict t ~mode:`Auto) blocks in
              (match Store.open_rw path with
               | Error e -> Alcotest.failf "open: %s" (Err.to_string e)
               | Ok (w, _) ->
                 let n = Store.sync_memo w (Engine.memo_entries t) in
                 Store.close w;
                 Alcotest.(check int) "all persisted" 6 n);
              ps)
        in
        let report = check_load_ok path in
        List.iter
          (fun cache_shards ->
            Engine.with_pool ~workers:1 ~cache_shards (fun t ->
                Engine.memo_seed t
                  (List.rev_map Codec.to_memo report.Store.records);
                let warm_preds =
                  List.map (Engine.predict t ~mode:`Auto) blocks
                in
                let { Engine.hits; misses; _ } = Engine.cache_stats t in
                Alcotest.(check int)
                  (Printf.sprintf "%d shards: every block a hit" cache_shards)
                  6 hits;
                Alcotest.(check int)
                  (Printf.sprintf "%d shards: no recompute" cache_shards)
                  0 misses;
                List.iter2
                  (fun a b ->
                    Alcotest.(check bool) "bit-identical" true
                      (Codec.pred_equal a b))
                  cold_preds warm_preds))
          [ 1; 8 ]);
    Alcotest.test_case "sync_memo dedups against recovered records" `Quick
      (fun () ->
        with_temp @@ fun path ->
        let records = records_for_suite () in
        populate path records;
        match Store.open_rw path with
        | Error e -> Alcotest.failf "open: %s" (Err.to_string e)
        | Ok (w, _) ->
          Fun.protect ~finally:(fun () -> Store.close w) @@ fun () ->
          Alcotest.(check int) "seen covers the file"
            (List.length records) (Store.seen_count w);
          (* replaying the same entries appends nothing *)
          let n = Store.sync_memo w (List.map Codec.to_memo records) in
          Alcotest.(check int) "no duplicates" 0 n;
          (* one genuinely new entry appends exactly one frame *)
          let fresh = mk_record ~arch:Config.SNB "4801c8" in
          let n' =
            Store.sync_memo w (Codec.to_memo fresh :: List.map Codec.to_memo records)
          in
          Alcotest.(check int) "one fresh" 1 n') ]

(* ------------------------------------------------------------------ *)
(* CLI exit codes (subprocess)                                         *)

(* The binary is a declared dune dep of this test, so the relative
   path is stable under `dune runtest`. *)
let facile_exe = "../bin/facile.exe"

let run_cli args =
  Sys.command
    (Printf.sprintf "%s %s </dev/null >/dev/null 2>&1" facile_exe args)

(* exit code and stderr of one run, [stdin] on its input *)
let run_cli_err ?(stdin = "") args =
  let tmp ext = Filename.temp_file "facile_store_cli" ext in
  let inp = tmp ".in" and err = tmp ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove inp; Sys.remove err) @@ fun () ->
  write_file inp stdin;
  let rc =
    Sys.command
      (Printf.sprintf "%s %s <%s >/dev/null 2>%s" facile_exe args
         (Filename.quote inp) (Filename.quote err))
  in
  (rc, In_channel.with_open_bin err In_channel.input_all)

(* exit code and stdout of one run *)
let run_cli_out args =
  let out = Filename.temp_file "facile_store_cli" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  let rc =
    Sys.command
      (Printf.sprintf "%s %s </dev/null >%s 2>/dev/null" facile_exe args
         (Filename.quote out))
  in
  (rc, In_channel.with_open_bin out In_channel.input_all)

(* Fingerprints of older models: every store carried the first before
   [Model.revision] was folded in, the second at revision 1 and the
   third at revision 2. *)
let older_fingerprints =
  [ 0x776378b951b0b844L; 0x96e4006d7c917f29L; 0xe798d958b83d9c41L ]

let cli_tests =
  [ Alcotest.test_case "--cache-cap 0 exits 1 before reading input" `Quick
      (fun () ->
        Alcotest.(check int) "batch" 1 (run_cli "batch --cache-cap 0"));
    Alcotest.test_case "cache verify: skewed store exits 12" `Quick (fun () ->
        with_temp @@ fun path ->
        write_file path
          (Segment.encode_header
             ~fingerprint:(Int64.lognot (Store.fingerprint ()))
          ^ Segment.encode_frame (Codec.encode (mk_record "90")));
        Alcotest.(check int) "exit 12" 12
          (run_cli (Printf.sprintf "cache verify %s" (Filename.quote path))));
    Alcotest.test_case "cache verify: a format-1 store exits 12" `Quick
      (fun () ->
        (* format 1 keyed records on a form signature; no migration *)
        with_temp @@ fun path ->
        let b =
          Bytes.of_string
            (Segment.encode_header ~fingerprint:(Store.fingerprint ()))
        in
        Bytes.set_int32_le b 8 1l;
        Bytes.set_int32_le b 20
          (Int32.of_int (Crc32.sub (Bytes.to_string b) 0 20));
        write_file path (Bytes.to_string b);
        Alcotest.(check int) "exit 12" 12
          (run_cli (Printf.sprintf "cache verify %s" (Filename.quote path))));
    Alcotest.test_case "cache verify: corrupt frame exits 10, clean exits 0"
      `Quick (fun () ->
        with_temp @@ fun path ->
        populate path (records_for_suite ());
        Alcotest.(check int) "clean store passes" 0
          (run_cli
             (Printf.sprintf "cache verify --recompute %s"
                (Filename.quote path)));
        flip_bit path (Segment.header_size + 8);
        Alcotest.(check int) "corrupt store fails" 10
          (run_cli (Printf.sprintf "cache verify %s" (Filename.quote path))));
    Alcotest.test_case "cache verify --recompute counts only the matches"
      `Quick (fun () ->
        with_temp @@ fun path ->
        let good = mk_record "4801d8" in
        let bad = mk_record ~arch:Config.HSW ~mode:`Loop "4829d8" in
        let p = bad.Codec.pred in
        let off_by_one =
          Model.make ~cycles:(p.Model.cycles +. 1.) ~value:(Model.value p)
            ~bottlenecks:(Model.bottlenecks p) ~fe_path:p.Model.fe_path
        in
        populate path [ good; { bad with Codec.pred = off_by_one } ];
        let rc, out =
          run_cli_out
            (Printf.sprintf "cache verify --recompute %s" (Filename.quote path))
        in
        Alcotest.(check int) "exit 10" 10 rc;
        Alcotest.(check string) "summary"
          (Printf.sprintf
             "finding: record 1 (HSW): stored prediction differs from \
              recomputed\n\
              verify: %s: 2 records, 1 recomputed bit-identically, 1 finding\n"
             path)
          out);
    Alcotest.test_case "a store from an older model revision exits 12" `Quick
      (fun () ->
        List.iter
          (fun fingerprint ->
            with_temp @@ fun path ->
            write_file path
              (Segment.encode_header ~fingerprint
              ^ Segment.encode_frame (Codec.encode (mk_record "4801d8")));
            let quoted = Filename.quote path in
            let what = Printf.sprintf "%016Lx: " fingerprint in
            Alcotest.(check int) (what ^ "cache verify") 12
              (run_cli (Printf.sprintf "cache verify %s" quoted));
            let rc, err =
              run_cli_err ~stdin:"4801d8\n"
                (Printf.sprintf "batch --store %s" quoted)
            in
            Alcotest.(check int) (what ^ "batch --store") 12 rc;
            Alcotest.(check bool)
              (Printf.sprintf "%sstore_skew in %S" what err) true
              (String.ends_with ~suffix:"(store_skew)\n" err))
          older_fingerprints);
    Alcotest.test_case "a directory as the store is refused by name" `Quick
      (fun () ->
        let dir = Filename.get_temp_dir_name () in
        List.iter
          (fun (cmd, stdin) ->
            let args = Printf.sprintf "%s %s" cmd (Filename.quote dir) in
            let rc, err = run_cli_err ~stdin args in
            Alcotest.(check int) (args ^ ": exit code") 11 rc;
            Alcotest.(check string) (args ^ ": stderr")
              ("error: " ^ dir ^ ": Is a directory (internal)\n") err)
          [ ("cache stat", "");
            ("cache verify", "");
            ("cache import", "");
            ("batch --store", "4801d8\n");
            ("serve --store", "") ]);
    Alcotest.test_case "cache import refuses a value table without Ports"
      `Quick (fun () ->
        with_temp @@ fun path ->
        let r = mk_record "4801d8" in
        let line =
          Json.to_string
            (edit_json r ~bottlenecks:Fun.id
               ~values:(List.filter (fun (k, _) -> k <> "Ports")))
        in
        let good = Json.to_string (Codec.to_json r) in
        let rc, err =
          run_cli_err ~stdin:(good ^ "\n" ^ line ^ "\n")
            (Printf.sprintf "cache import %s" (Filename.quote path))
        in
        Alcotest.(check int) "exit code" 4 rc;
        Alcotest.(check string) "stderr"
          "error: line 2: prediction: no value for Ports (parse_error)\n" err) ]

let suite =
  [ "store.crc32", crc_tests;
    "store.codec", codec_tests;
    "store.segment", segment_tests;
    "store.recovery", recovery_tests;
    "store.fault", fault_tests;
    "store.warm", warm_tests;
    "store.cli", cli_tests ]
