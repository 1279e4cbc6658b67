(* Table-driven CRC-32 (IEEE, reflected, poly 0xEDB88320) — the same
   checksum zlib/PNG/ethernet use, so segments can be cross-checked
   with standard tools.  OCaml ints are 63-bit here, so the 32-bit
   arithmetic fits natively.

   Slice-by-8: table [k] (entries [256 k .. 256 k + 255]) advances a
   byte's contribution past [k] further zero bytes, so one step folds
   eight bytes with eight lookups instead of eight dependent ones.
   Table 0 is the classic byte-at-a-time table, which the tail uses. *)

let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.((256 * (k - 1)) + n) in
      t.((256 * k) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

(* Indices are masked to a byte, so every lookup is in range. *)
let[@inline] at k i = Array.unsafe_get table ((256 * k) + (i land 0xFF))

let[@inline] u32 s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF

let sub s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Crc32.sub";
  let c = ref 0xFFFFFFFF in
  let i = ref off in
  let last8 = off + len - 8 in
  while !i <= last8 do
    let lo = !c lxor u32 s !i and hi = u32 s (!i + 4) in
    c :=
      at 7 lo lxor at 6 (lo lsr 8) lxor at 5 (lo lsr 16) lxor at 4 (lo lsr 24)
      lxor at 3 hi lxor at 2 (hi lsr 8) lxor at 1 (hi lsr 16)
      lxor at 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to off + len - 1 do
    c := at 0 (!c lxor Char.code (String.unsafe_get s j)) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let string s = sub s 0 (String.length s)
