let magic = "FACSTOR1"
let version = 2
let header_size = 24
let max_frame = 16 * 1024 * 1024

let put_u32 b v =
  Buffer.add_char b (Char.chr (v land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xFF))

let get_u32 s off = Int32.to_int (String.get_int32_le s off) land 0xFFFFFFFF

let encode_header ~fingerprint =
  let b = Buffer.create header_size in
  Buffer.add_string b magic;
  put_u32 b version;
  for i = 0 to 7 do
    Buffer.add_char b
      (Char.chr
         (Int64.to_int (Int64.shift_right_logical fingerprint (8 * i))
          land 0xFF))
  done;
  let body = Buffer.contents b in
  put_u32 b (Crc32.string body);
  Buffer.contents b

type header_error =
  | Truncated of int
  | Bad_magic
  | Bad_crc
  | Version_skew of { found : int; expected : int }

let header_error_to_string = function
  | Truncated n -> Printf.sprintf "file is %d bytes, shorter than a header" n
  | Bad_magic -> "bad magic (not a facile store)"
  | Bad_crc -> "header checksum mismatch"
  | Version_skew { found; expected } ->
    Printf.sprintf "format version %d, this build expects %d" found expected

let decode_header s =
  if String.length s < header_size then Error (Truncated (String.length s))
  else if String.sub s 0 8 <> magic then Error Bad_magic
  else if get_u32 s 20 <> Crc32.sub s 0 20 then Error Bad_crc
  else begin
    let found = get_u32 s 8 in
    if found <> version then Error (Version_skew { found; expected = version })
    else begin
      let fp = ref 0L in
      for i = 7 downto 0 do
        fp := Int64.logor (Int64.shift_left !fp 8)
                (Int64.of_int (Char.code s.[12 + i]))
      done;
      Ok !fp
    end
  end

let encode_frame payload =
  let b = Buffer.create (8 + String.length payload) in
  put_u32 b (String.length payload);
  put_u32 b (Crc32.string payload);
  Buffer.add_string b payload;
  Buffer.contents b

type finding =
  | Crc_mismatch of { off : int; len : int }
  | Torn_tail of { off : int; remaining : int }

let finding_to_string = function
  | Crc_mismatch { off; len } ->
    Printf.sprintf "frame at offset %d (%d bytes): checksum mismatch, \
                    quarantined" off len
  | Torn_tail { off; remaining } ->
    Printf.sprintf "torn tail at offset %d (%d trailing bytes)" off remaining

type frame = { off : int; len : int }

let payload_off f = f.off + 8

type scan = {
  frames : frame list;
  findings : finding list;
  good_end : int;
}

(* Whether the [len]-byte payload at [pos] matches [crc], checked where
   it lies in [content].  A non-empty payload first draws the
   "store.read" fault point, which simulates media corruption: a frame
   it fires for reads back with one bit flipped, so it counts as a
   checksum mismatch and is quarantined unread. *)
let payload_clean content pos len crc =
  (len = 0 || Option.is_none (Facile_engine.Fault.draw "store.read"))
  && Crc32.sub content pos len = crc

let scan content =
  let n = String.length content in
  let frames = ref [] in
  let findings = ref [] in
  let good_end = ref header_size in
  let off = ref header_size in
  let stop = ref false in
  while (not !stop) && !off < n do
    let o = !off in
    if o + 8 > n then begin
      findings := Torn_tail { off = o; remaining = n - o } :: !findings;
      stop := true
    end
    else begin
      let len = get_u32 content o in
      if len > max_frame || o + 8 + len > n then begin
        findings := Torn_tail { off = o; remaining = n - o } :: !findings;
        stop := true
      end
      else begin
        if payload_clean content (o + 8) len (get_u32 content (o + 4)) then
          frames := { off = o; len } :: !frames
        else findings := Crc_mismatch { off = o; len } :: !findings;
        off := o + 8 + len;
        good_end := !off
      end
    end
  done;
  { frames = List.rev !frames;
    findings = List.rev !findings;
    good_end = !good_end }
