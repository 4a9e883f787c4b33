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

(* One pass: chunks are cut as the frame walk yields records, each
   chunk's records gathered in one scratch array and copied out flat. The
   keys are hashed once the cuts are known, four slices at a time
   ({!Hash64.tiles}); a chunk is a slice of the body. *)
let split ?(records_per_chunk = default_records_per_chunk) schema body =
  if records_per_chunk < 1 then invalid_arg "Chunk.split: records_per_chunk";
  let recs = ref (Array.make (2 * min records_per_chunk 64) 0) in
  let cuts = ref (Array.make 64 0) and dirs = ref [] in
  let count = ref 0 and n = ref 0 and stop = ref 0 in
  let cut () =
    dirs := Array.sub !recs 0 (2 * !n) :: !dirs;
    incr count;
    if !count = Array.length !cuts then
      cuts := Array.append !cuts (Array.make !count 0);
    !cuts.(!count) <- !stop;
    n := 0
  in
  Restore.iter_frames schema body (fun id off len ->
      let i = 2 * !n in
      if i = Array.length !recs then
        recs := Array.append !recs (Array.make i 0);
      Array.unsafe_set !recs i id;
      Array.unsafe_set !recs (i + 1) (off - !cuts.(!count));
      stop := off + len;
      incr n;
      if !n = records_per_chunk then cut ());
  if !n > 0 then cut ();
  let cuts = Array.sub !cuts 0 (!count + 1) in
  let keys = Hash64.tiles body cuts in
  let rec build k dirs acc =
    match dirs with
    | [] -> acc
    | records :: dirs ->
        build (k - 1) dirs
          ({ key = keys.(k);
             src = body;
             off = cuts.(k);
             len = cuts.(k + 1) - cuts.(k);
             records }
          :: acc)
  in
  build (!count - 1) !dirs []
