open Ickpt_core
open Ickpt_stream

type t = {
  key : int;
  src : string;
  off : int;
  len : int;
  records : int array;
}

let default_records_per_chunk = 16

let key_of s = Hash64.string s

let of_string src =
  { key = key_of src; src; off = 0; len = String.length src; records = [||] }

external get64u : string -> int -> int64 = "%caml_string_get64u"

let inside s off len = off >= 0 && off <= String.length s - len

let[@inline] xor64 a aoff b boff i =
  Int64.logxor (get64u a (aoff + i)) (get64u b (boff + i))

(* How many bytes agree, compared in place, unchecked once both windows
   are known to lie inside their strings: 32 bytes at a time while they
   agree, then eight, then byte by byte up to the first that differs. *)
let unsafe_prefix a aoff b boff len =
  let i = ref 0 in
  while
    !i + 32 <= len
    && Int64.logor
         (Int64.logor (xor64 a aoff b boff !i) (xor64 a aoff b boff (!i + 8)))
         (Int64.logor (xor64 a aoff b boff (!i + 16)) (xor64 a aoff b boff (!i + 24)))
       = 0L
  do
    i := !i + 32
  done;
  while !i + 8 <= len && xor64 a aoff b boff !i = 0L do
    i := !i + 8
  done;
  while
    !i < len && String.unsafe_get a (aoff + !i) = String.unsafe_get b (boff + !i)
  do
    incr i
  done;
  !i

let equal_sub a aoff b boff len =
  len >= 0 && inside a aoff len && inside b boff len
  && unsafe_prefix a aoff b boff len = len

let common_prefix a aoff b boff len =
  if not (len >= 0 && inside a aoff len && inside b boff len) then
    invalid_arg "Chunk.common_prefix";
  unsafe_prefix a aoff b boff len

let max_salt_attempts = 8

(* The hash of the salt prefix followed by the slice: FNV runs on over the
   slice in place, as over the concatenation. *)
let salted_key c ~attempt =
  if attempt < 1 || attempt > max_salt_attempts then
    invalid_arg "Chunk.salted_key: attempt out of range";
  Hash64.sub
    ~h:(Hash64.string (Printf.sprintf "ickpt-salt-%d:" attempt))
    c.src ~pos:c.off ~len:c.len

let key_matches key c =
  Hash64.sub c.src ~pos:c.off ~len:c.len = key
  ||
  let rec go attempt =
    attempt <= max_salt_attempts
    && (salted_key c ~attempt = key || go (attempt + 1))
  in
  go 1

(* The keys are hashed once the cuts are known, four slices at a time
   ({!Hash64.tiles}); a chunk is a slice of the body. *)
let of_frames ?(records_per_chunk = default_records_per_chunk) body ~ids ~offs
    ~n =
  if records_per_chunk < 1 then invalid_arg "Chunk.of_frames: records_per_chunk";
  if n < 0 || n > Array.length ids || n > Array.length offs then
    invalid_arg "Chunk.of_frames: n";
  let count = (n + records_per_chunk - 1) / records_per_chunk in
  let cuts =
    Array.init (count + 1) (fun k ->
        if k = count then String.length body else offs.(k * records_per_chunk))
  in
  let keys = Hash64.tiles body cuts in
  List.init count (fun k ->
      let first = k * records_per_chunk in
      let m = min n (first + records_per_chunk) - first in
      let records = Array.make (2 * m) 0 in
      for i = 0 to m - 1 do
        records.(2 * i) <- ids.(first + i);
        records.((2 * i) + 1) <- offs.(first + i) - cuts.(k)
      done;
      { key = keys.(k);
        src = body;
        off = cuts.(k);
        len = cuts.(k + 1) - cuts.(k);
        records })

let split ?(records_per_chunk = default_records_per_chunk) schema body =
  if records_per_chunk < 1 then invalid_arg "Chunk.split: records_per_chunk";
  let ids, offs, n = Restore.frames schema body in
  of_frames ~records_per_chunk body ~ids ~offs ~n
