(** On-disk segment format of the persistent prediction store.

    A segment is a 24-byte header followed by append-only frames:

    {v
    header:  "FACSTOR1" (8)  version u32  fingerprint i64  crc32 u32
    frame:   payload_len u32  crc32(payload) u32  payload
    v}

    All integers little-endian.  The header CRC covers the first 20
    bytes; each frame CRC covers its payload only, so a bit flip in
    one frame cannot hide a flip in another.

    The scanner is the recovery policy in code form:
    - a frame whose length is plausible but whose CRC fails is
      {e quarantined}: reported and skipped, scanning continues at the
      next frame boundary;
    - an implausible length or a frame extending past end-of-file is a
      {e torn tail}: scanning stops and [good_end] marks the offset
      where the damage starts, so a writer can truncate and resume.

    A kill -9 mid-append therefore loses at most the final frame. *)

val magic : string

(** Current format version.  Any change to the header, frame, or
    {!Codec} wire layout must bump this.  Version 2 records carry the
    requested mode and the instruction count; version 1 records (the
    resolved notion and a form signature) are refused as skew. *)
val version : int

(** Header size in bytes (24). *)
val header_size : int

(** Frames longer than this are treated as framing damage, not data. *)
val max_frame : int

val encode_header : fingerprint:int64 -> string

type header_error =
  | Truncated of int  (** file shorter than a header; holds the size *)
  | Bad_magic
  | Bad_crc
  | Version_skew of { found : int; expected : int }

val header_error_to_string : header_error -> string

(** Returns the stored table/config fingerprint.  Fingerprint
    {e matching} is the caller's concern ({!Store}); the header only
    carries it. *)
val decode_header : string -> (int64, header_error) result

val encode_frame : string -> string

type finding =
  | Crc_mismatch of { off : int; len : int }
      (** quarantined frame at [off] with payload length [len] *)
  | Torn_tail of { off : int; remaining : int }
      (** structural damage at [off]; [remaining] bytes unscannable *)

val finding_to_string : finding -> string

type scan = {
  frames : (int * string) list;
      (** CRC-clean payloads with their frame offsets, in file order *)
  findings : finding list;
  good_end : int;
      (** offset after the last structurally complete frame — the
          truncation point that removes the torn tail (and nothing
          else; quarantined frames are left in place and re-skipped
          on every load) *)
}

(** [scan content] walks every frame after the header.  [content] is
    the whole file including the header, which must already have been
    validated.  Honours the ["store.read"] fault point by flipping one
    payload bit per drawn frame, simulating media corruption. *)
val scan : string -> scan
