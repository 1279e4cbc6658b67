(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the per-frame checksum
    of the persistent prediction store.  Pure OCaml, table-driven,
    eight bytes per step (slice-by-8); the result is the standard
    reflected CRC as a non-negative [int] in [0, 0xFFFFFFFF]. *)

(** CRC of a whole string. *)
val string : string -> int

(** [sub s off len] — CRC of the substring, read in place.
    @raise Invalid_argument if the range is out of bounds. *)
val sub : string -> int -> int -> int
