open Ickpt_core

type t = {
  key : int;
  data : string;
  records : (int * int) list;
}

let default_records_per_chunk = 16

let key_of s = Ickpt_stream.Hash64.string s

let max_salt_attempts = 8

let salted_key s ~attempt =
  if attempt < 1 || attempt > max_salt_attempts then
    invalid_arg "Chunk.salted_key: attempt out of range";
  Ickpt_stream.Hash64.string (Printf.sprintf "ickpt-salt-%d:%s" attempt s)

let key_matches key data =
  key_of data = key
  ||
  let rec go attempt =
    attempt <= max_salt_attempts
    && (salted_key data ~attempt = key || go (attempt + 1))
  in
  go 1

(* One pass: chunks are cut as the frame walk yields records. *)
let split ?(records_per_chunk = default_records_per_chunk) schema body =
  if records_per_chunk < 1 then invalid_arg "Chunk.split: records_per_chunk";
  let chunks = ref [] and recs = ref [] and n = ref 0 in
  let start = ref 0 and stop = ref 0 in
  let cut () =
    let data = String.sub body !start (!stop - !start) in
    chunks := { key = key_of data; data; records = List.rev !recs } :: !chunks;
    recs := [];
    n := 0;
    start := !stop
  in
  Restore.iter_frames schema body (fun id off len ->
      recs := (id, off - !start) :: !recs;
      stop := off + len;
      incr n;
      if !n = records_per_chunk then cut ());
  if !n > 0 then cut ();
  List.rev !chunks
