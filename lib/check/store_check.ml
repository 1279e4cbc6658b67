(* Persistent-store self-verification, the store- rule family.

   Two layers: pure codec identities (no I/O), then recovery drills
   against real temp-file segments.  The drills are positive
   controls: each one deliberately damages a store in the exact way
   the recovery logic claims to handle — flipped payload byte, torn
   tail, patched version, foreign fingerprint — and asserts the
   corresponding guard fires.  A recovery path that is never
   exercised is indistinguishable from one that does not work. *)

open Facile_core
module Err = Facile_x86.Err
module Codec = Facile_store.Codec
module Segment = Facile_store.Segment
module Store = Facile_store.Store
module Crc32 = Facile_store.Crc32
module Json = Facile_obs.Json

let error = Finding.error
let info = Finding.info

(* Synthetic records covering every arch, every mode, every fe-path
   and component code, empty and binary-heavy byte strings. *)
let specimens () =
  let arches = List.map (fun c -> c.Facile_uarch.Config.arch)
                 Facile_uarch.Config.all in
  let fe_paths =
    [ Model.FE_decoders; Model.FE_lsd; Model.FE_dsb; Model.FE_none ]
  in
  let all_bytes = String.init 256 Char.chr in
  List.mapi
    (fun i arch ->
      let values =
        List.mapi (fun j c -> (c, float_of_int (i + j) /. 3.0))
          Model.all_components
      in
      let pred =
        Model.make ~cycles:(0.25 +. (float_of_int i *. 1.5))
          ~value:(fun c -> List.assoc c values)
          ~bottlenecks:
            [ List.nth Model.all_components
                (i mod List.length Model.all_components) ]
          ~fe_path:(List.nth fe_paths (i mod List.length fe_paths))
      in
      { Codec.arch;
        mode = List.nth [ `Loop; `Unrolled; `Auto ] (i / 3 mod 3);
        insts = 0xFFFFFFFF - (i * 0x1234567);
        bytes =
          (match i mod 3 with
           | 0 -> ""
           | 1 -> "\x48\x01\xd8"
           | _ -> all_bytes);
        pred })
    arches

let record_equal a b =
  a.Codec.arch = b.Codec.arch
  && a.Codec.mode = b.Codec.mode
  && a.Codec.insts = b.Codec.insts
  && a.Codec.bytes = b.Codec.bytes
  && Codec.pred_equal a.Codec.pred b.Codec.pred

(* --- pure codec identities ----------------------------------------- *)

let check_crc_vector () =
  (* the standard CRC-32 known-answer test ("check" value) *)
  let got = Crc32.string "123456789" in
  if got = 0xCBF43926 then []
  else
    [ error "store-crc-vector" "crc32"
        (Printf.sprintf "crc32(\"123456789\") = %08x, expected cbf43926" got) ]

let check_roundtrip r =
  let where = Printf.sprintf "record/%s"
      (Facile_uarch.Config.by_arch r.Codec.arch).Facile_uarch.Config.abbrev in
  (match Codec.decode (Codec.encode r) with
   | Ok r' when record_equal r r' -> []
   | Ok _ -> [ error "store-roundtrip" where "decode∘encode changed the record" ]
   | Error m -> [ error "store-roundtrip" where ("decode failed: " ^ m) ])
  @
  match Result.bind (Json.parse (Json.to_string (Codec.to_json r)))
          Codec.of_json
  with
  | Ok r' when record_equal r r' -> []
  | Ok _ ->
    [ error "store-json-roundtrip" where
        "JSON export/import changed the record" ]
  | Error m ->
    [ error "store-json-roundtrip" where ("import failed: " ^ m) ]

let check_decode_strict r =
  (* trailing garbage after a structurally valid record must be
     rejected, or frame CRCs could hide content-level skew *)
  match Codec.decode (Codec.encode r ^ "\x00") with
  | Error _ -> []
  | Ok _ ->
    [ error "store-decode-strict" "record"
        "decoder accepted a record with trailing bytes" ]

(* --- temp-file recovery drills ------------------------------------- *)

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

let with_temp f =
  let path = Filename.temp_file "facile-store-check" ".seg" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* Build a clean store of the specimen records and hand its content to
   the drill. *)
let with_store recs f =
  with_temp (fun path ->
      match Store.open_rw path with
      | Error e ->
        [ error "store-drill" "open_rw" (Err.to_string e) ]
      | Ok (w, _) ->
        List.iter (Store.append w) recs;
        Store.close w;
        f path (read_file path))

let check_load_identity recs =
  with_store recs (fun path _content ->
      match Store.load path with
      | Error e -> [ error "store-load" path (Err.to_string e) ]
      | Ok r ->
        if not (Store.report_clean r) then
          [ error "store-load" path "fresh store does not scan clean" ]
        else if List.length r.Store.records <> List.length recs
                || not (List.for_all2 record_equal recs r.Store.records)
        then [ error "store-load" path "loaded records differ from appended" ]
        else [])

let check_quarantine recs =
  with_store recs (fun path content ->
      (* flip one payload bit of the second frame; its CRC must catch
         it, and every other record must survive *)
      let off = Segment.header_size in
      let len1 = Char.code content.[off] lor (Char.code content.[off + 1] lsl 8)
                 lor (Char.code content.[off + 2] lsl 16)
                 lor (Char.code content.[off + 3] lsl 24) in
      let frame2 = off + 8 + len1 in
      let target = frame2 + 8 in  (* first payload byte of frame 2 *)
      let b = Bytes.of_string content in
      Bytes.set b target (Char.chr (Char.code (Bytes.get b target) lxor 0x10));
      write_file path (Bytes.to_string b);
      match Store.load path with
      | Error e -> [ error "store-quarantine" path (Err.to_string e) ]
      | Ok r ->
        if r.Store.quarantined <> 1 then
          [ error "store-quarantine" path
              (Printf.sprintf
                 "flipped one payload bit: %d frames quarantined, expected 1"
                 r.Store.quarantined) ]
        else if List.length r.Store.records <> List.length recs - 1 then
          [ error "store-quarantine" path
              "quarantine did not preserve the other records" ]
        else if Store.report_clean r then
          [ error "store-quarantine" path
              "report counts corruption but claims to be clean" ]
        else [])

let check_torn_tail recs =
  with_store recs (fun path content ->
      (* chop 3 bytes off the final frame: a torn tail, then reopen
         must truncate it away and scan clean *)
      write_file path (String.sub content 0 (String.length content - 3));
      let torn =
        match Store.load path with
        | Error e -> [ error "store-torn-tail" path (Err.to_string e) ]
        | Ok r ->
          if r.Store.torn_tail <= 0 then
            [ error "store-torn-tail" path
                "truncated file does not report a torn tail" ]
          else if List.length r.Store.records <> List.length recs - 1 then
            [ error "store-torn-tail" path
                "torn tail cost more than the final record" ]
          else []
      in
      let recovered =
        match Store.open_rw path with
        | Error e -> [ error "store-recovery" path (Err.to_string e) ]
        | Ok (w, r) ->
          Store.close w;
          if not (Store.report_clean r) then
            [ error "store-recovery" path
                "reopen did not recover the torn store" ]
          else
            (match Store.load path with
             | Ok r' when Store.report_clean r'
                          && List.length r'.Store.records
                             = List.length recs - 1 -> []
             | Ok _ ->
               [ error "store-recovery" path
                   "store does not scan clean after recovery" ]
             | Error e -> [ error "store-recovery" path (Err.to_string e) ])
      in
      torn @ recovered)

let patch_u32 b off v =
  for i = 0 to 3 do
    Bytes.set b (off + i) (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let check_version_skew recs =
  with_store recs (fun path content ->
      let b = Bytes.of_string content in
      patch_u32 b 8 (Segment.version + 1);
      let fixed = Bytes.to_string b in
      patch_u32 b 20 (Crc32.sub fixed 0 20);
      write_file path (Bytes.to_string b);
      match Store.load path with
      | Error e when e.Err.kind = Err.Store_skew -> []
      | Error e ->
        [ error "store-version-skew" path
            ("wrong kind for version skew: " ^ Err.kind_name e.Err.kind) ]
      | Ok _ ->
        [ error "store-version-skew" path
            "a future-version store was served instead of refused" ])

let check_fingerprint_skew () =
  with_temp (fun path ->
      let alien = Int64.lognot (Store.fingerprint ()) in
      write_file path (Segment.encode_header ~fingerprint:alien);
      (match Store.load path with
       | Error e when e.Err.kind = Err.Store_skew -> []
       | Error e ->
         [ error "store-fingerprint-skew" path
             ("wrong kind for fingerprint skew: " ^ Err.kind_name e.Err.kind) ]
       | Ok _ ->
         [ error "store-fingerprint-skew" path
             "a stale-table store was served instead of refused" ])
      @
      (* open_rw must refuse too: appending current-table records to a
         stale-table store would bless its stale predictions *)
      match Store.open_rw path with
      | Error e when e.Err.kind = Err.Store_skew -> []
      | Error e ->
        [ error "store-fingerprint-skew" (path ^ "/rw")
            ("wrong kind for fingerprint skew: " ^ Err.kind_name e.Err.kind) ]
      | Ok (w, _) ->
        Store.close w;
        [ error "store-fingerprint-skew" (path ^ "/rw")
            "open_rw accepted a stale-table store" ])

let check_corrupt_header () =
  with_temp (fun path ->
      let hdr = Segment.encode_header ~fingerprint:(Store.fingerprint ()) in
      let b = Bytes.of_string hdr in
      Bytes.set b 2 'X';  (* damage the magic *)
      write_file path (Bytes.to_string b);
      match Store.load path with
      | Error e when e.Err.kind = Err.Check_failed -> []
      | Error e ->
        [ error "store-header" path
            ("wrong kind for corrupt header: " ^ Err.kind_name e.Err.kind) ]
      | Ok _ ->
        [ error "store-header" path "corrupt header was not refused" ])

let run () =
  let recs = specimens () in
  let findings =
    check_crc_vector ()
    @ List.concat_map check_roundtrip recs
    @ check_decode_strict (List.hd recs)
    @ check_load_identity recs
    @ check_quarantine recs
    @ check_torn_tail recs
    @ check_version_skew recs
    @ check_fingerprint_skew ()
    @ check_corrupt_header ()
  in
  if findings = [] then
    [ info "store-ok" "store"
        (Printf.sprintf
           "%d records round-tripped; quarantine/torn-tail/skew drills passed \
            (fingerprint %016Lx)"
           (List.length recs) (Store.fingerprint ())) ]
  else findings
