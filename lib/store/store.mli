(** The persistent prediction store: crash-safe warm-restart cache for
    the engine's memo table, one {!Segment} file per store.

    Durability contract (tested by the chaos harness and the [store]
    family of [facile check]):
    - a kill -9 mid-append loses at most the frame being written;
    - reopening a torn store truncates the tail and resumes appending;
    - corrupt frames inside the file are quarantined (skipped and
      counted), never served;
    - a store written by a different format version, model revision
      ({!Facile_core.Model.revision}) or instruction tables/configs
      than this build's is refused with {!Facile_x86.Err.Store_skew}
      (exit code 12) rather than silently served. *)

open Facile_core

(** Fingerprint of this build's model: FNV-1a 64 over
    {!Facile_core.Model.revision}, every config field of the nine
    microarchitectures, and each enumerated form's descriptor on each
    ({!Facile_db.Flat.table}'s [descs]).  Computed once, cached.  A
    store is bound to the fingerprint it was written under. *)
val fingerprint : unit -> int64

type report = {
  records : Codec.record list;  (** decodable records, in file order *)
  frames_ok : int;       (** CRC-clean frames *)
  quarantined : int;     (** frames skipped for a CRC mismatch *)
  undecodable : int;     (** CRC-clean frames {!Codec} rejected *)
  torn_tail : int;       (** bytes of structural damage at the end *)
  file_size : int;
  good_end : int;        (** truncation point a writer would use *)
  stored_fingerprint : int64;
}

(** No quarantined, undecodable, or torn bytes. *)
val report_clean : report -> bool

val report_to_json : report -> Facile_obs.Json.t

(** [load path] reads and scans a store without modifying it.
    [check_fingerprint] defaults to [true]; pass [false] to inspect a
    skewed store ([facile cache stat] does).  Errors: corrupt or
    foreign header → [Check_failed]; version or fingerprint skew →
    [Store_skew]; missing/unreadable file → [Internal]. *)
val load :
  ?check_fingerprint:bool -> string -> (report, Facile_x86.Err.t) result

(** Append handle.  Not synchronized — callers serialize access (the
    serve persist hook runs under its own lock). *)
type writer

(** [open_rw path] opens or creates a store for appending, recovering
    first: a torn tail (or a torn header on a file shorter than one)
    is truncated away, quarantined frames are left in place.  The
    returned report describes the state {e after} recovery.  Refuses
    corrupt headers and skewed stores like {!load}. *)
val open_rw : string -> (writer * report, Facile_x86.Err.t) result

val path : writer -> string

(** Records appended through this writer plus those recovered at open
    — the dedup set {!sync_memo} consults. *)
val seen_count : writer -> int

(** [append w r] writes one frame and registers [r]'s key as seen.
    Honours the ["store.short_write"] (partial frame hits the disk,
    then the error surfaces — the torn-tail case) and ["store.enospc"]
    fault points.
    @raise Facile_x86.Err.Error with kind [Internal] on I/O failure,
    injected or real. *)
val append : writer -> Codec.record -> unit

(** [sync_memo w entries] appends every entry whose key the writer has
    not seen, oldest-recency first, then fsyncs if anything was
    written.  [entries] is in {!Facile_engine.Engine.memo_entries}
    order (most-recent first).  Returns the number appended. *)
val sync_memo :
  writer ->
  (Facile_engine.Engine.memo_key * Model.prediction) list ->
  int

(** Fsync and close.  Idempotent. *)
val close : writer -> unit
