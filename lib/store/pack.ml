open Ickpt_core
open Ickpt_stream

(* The key table: one slot per located chunk, in the order the entries
   located them ([keys] numbers them), and per slot, as flat arrays: where
   the chunk's body starts in the file and how long it is, its CRC-32, and
   whether that CRC has held. No chunk byte is kept. *)
type t = {
  vfs : Vfs.t;
  file : string;
  mutable size : int;  (* the file's length when last opened, cut or appended *)
  mutable cut : int;  (* bytes the last reopen cut off past the committed length *)
  mutable keys : Idtbl.t;
  mutable offs : int array;
  mutable lens : int array;
  mutable crcs : int array;
  mutable checked : Bytes.t;  (* '\001' once the slot's CRC has held *)
  mutable buf : Bytes.t;  (* the one fetch buffer, grown on demand *)
}

let slot t key = Idtbl.find t.keys key

let slot_exn t key =
  match slot t key with -1 -> raise Not_found | s -> s

let grow a n =
  let b = Array.make (2 * n) 0 in
  Array.blit a 0 b 0 n;
  b

let initial = 256

(* The chunk becomes the next slot unless its key is already located: the
   first location of a key wins, as a dedup hit would. *)
let add t ~key ~off ~len ~crc ~checked =
  let s = Idtbl.length t.keys in
  if Idtbl.add t.keys key = s then begin
    if s = Array.length t.offs then begin
      t.offs <- grow t.offs s;
      t.lens <- grow t.lens s;
      t.crcs <- grow t.crcs s;
      t.checked <- Bytes.extend t.checked 0 s
    end;
    t.offs.(s) <- off;
    t.lens.(s) <- len;
    t.crcs.(s) <- crc;
    Bytes.set t.checked s (if checked then '\001' else '\000')
  end

let stop t s = t.offs.(s) + t.lens.(s)

(* ------------------------------------------------------------------ *)
(* Open: the table comes from the index entries; no pack byte is read. *)

let file_size t = if t.vfs.Vfs.exists t.file then t.vfs.Vfs.size t.file else 0

let locate t ~checked e =
  let stop = ref e.Epoch_index.at in
  Epoch_index.iter_located e (fun key ~pos ~len ~crc ->
      add t ~key ~off:pos ~len ~crc ~checked;
      stop := pos + len);
  !stop

(* The table and arrays are sized once, for every chunk the entries count
   plus [initial] more for the session's own appends: building them
   neither grows nor rehashes. *)
let reload t entries =
  let cap =
    List.fold_left (fun n e -> n + Epoch_index.located_count e) initial entries
  in
  t.keys <- Idtbl.create cap;
  t.offs <- Array.make cap 0;
  t.lens <- Array.make cap 0;
  t.crcs <- Array.make cap 0;
  t.checked <- Bytes.make cap '\000';
  t.size <- file_size t;
  t.cut <- 0;
  (* A malformed entry locates what decoded before the fault; it does not
     resolve, so whoever reloads with it drops it and reloads again. *)
  List.map
    (fun e ->
      match locate t ~checked:false e with
      | stop -> Some stop
      | exception In_stream.Corrupt _ -> None)
    entries

let open_ ?(vfs = Vfs.real) file =
  let t =
    { vfs; file; size = 0; cut = 0; keys = Idtbl.create 0; offs = [||];
      lens = [||]; crcs = [||]; checked = Bytes.empty; buf = Bytes.empty }
  in
  ignore (reload t [] : int option list);
  t

let cut t ~committed =
  if t.size > committed then begin
    t.vfs.Vfs.truncate t.file ~len:committed;
    t.cut <- t.size - committed;
    t.size <- committed
  end

let mem t key = slot t key >= 0

let chunk_len t key = t.lens.(slot_exn t key)

let chunk_crc t key = t.crcs.(slot_exn t key)

let keys t = List.init (Idtbl.length t.keys) (Idtbl.key t.keys)

let length t = Idtbl.length t.keys

let physical_bytes t = t.size

let cut_bytes t = t.cut

(* ------------------------------------------------------------------ *)
(* Reads: positional, one call per fetch, a window per run.            *)

let read_buffer_size = 65536

(* Chunks whose gap is at most this many bytes share one window: reading
   the gap costs less than a second read. *)
let coalesce_gap = 4096

(* Check slot [s]'s CRC, unless it has held before, where its body lies in
   [buf] from [at] on. *)
let check_in t s buf ~at =
  if Bytes.get t.checked s = '\000' then begin
    if Crc32.sub buf ~pos:at ~len:t.lens.(s) <> t.crcs.(s) then
      raise
        (In_stream.Corrupt
           (Printf.sprintf "pack crc mismatch at %d (chunk %s)" t.offs.(s)
              (Hash64.to_hex (Idtbl.key t.keys s))));
    Bytes.set t.checked s '\001'
  end

(* The end of the run that starts at [order.(i)]: the first index past it
   and the file offset where its bytes end. A run takes the next chunk
   while the gap is at most [coalesce_gap] and the run stays within
   [read_buffer_size] (a longer chunk is a run of its own). *)
let run_end t slots order i =
  let n = Array.length order in
  let base = t.offs.(slots.(order.(i))) in
  let j = ref (i + 1) and last = ref (stop t slots.(order.(i))) in
  while
    !j < n
    &&
    let s = slots.(order.(!j)) in
    t.offs.(s) - !last <= coalesce_gap && stop t s - base <= read_buffer_size
  do
    last := max !last (stop t slots.(order.(!j)));
    incr j
  done;
  (!j, !last)

(* Fetch the chunks under [keys] into the pack's one buffer: in file
   order, one read call for every run of chunks (see [run_end]), back to
   back, the buffer grown first to hold them all. Each chunk not yet
   checked is CRC-checked in place, in file order, before any is returned.
   Returns the buffer and, per key, where that chunk's body starts in it.
   The buffer is overwritten by the pack's next read: nothing may keep
   it. *)
let fetch t keys =
  let slots = Array.map (slot_exn t) keys in
  let n = Array.length slots in
  (* Sort the indices by body offset. Each key packs (offset, index) into
     one int: offsets lie inside the file, and n is an array length. Keys
     named in file order, as a chain's are, are sorted already. *)
  let order = Array.init n (fun i -> (t.offs.(slots.(i)) * n) + i) in
  let sorted = ref true in
  for i = 1 to n - 1 do
    if order.(i - 1) > order.(i) then sorted := false
  done;
  if not !sorted then Array.sort Int.compare order;
  let order = Array.map (fun v -> v mod n) order in
  let total = ref 0 and i = ref 0 in
  while !i < n do
    let j, last = run_end t slots order !i in
    total := !total + last - t.offs.(slots.(order.(!i)));
    i := j
  done;
  if Bytes.length t.buf < !total then
    t.buf <-
      Bytes.create
        (max !total (max read_buffer_size (2 * Bytes.length t.buf)));
  let buf = Bytes.unsafe_to_string t.buf in
  let starts = Array.make n 0 in
  let at = ref 0 and runs = ref [] in
  i := 0;
  while !i < n do
    let j, last = run_end t slots order !i in
    let base = t.offs.(slots.(order.(!i))) in
    runs := (base, !at, last - base) :: !runs;
    for k = !i to j - 1 do
      starts.(order.(k)) <- !at + t.offs.(slots.(order.(k))) - base
    done;
    at := !at + last - base;
    i := j
  done;
  (if !runs <> [] then
     try t.vfs.Vfs.read_into t.file t.buf (List.rev !runs)
     with Vfs.Out_of_range msg -> raise (In_stream.Corrupt msg));
  Array.iter (fun k -> check_in t slots.(k) buf ~at:starts.(k)) order;
  (buf, starts)

let read_many t keys =
  let buf, starts = fetch t keys in
  Array.mapi (fun i key -> String.sub buf starts.(i) (chunk_len t key)) keys

let read t key = (read_many t [| key |]).(0)

(* ------------------------------------------------------------------ *)
(* Appends.                                                            *)

(* The slices are blitted into one buffer, written once. *)
let append t (chunks : Chunk.t list) =
  let start = file_size t in
  let total = List.fold_left (fun n (c : Chunk.t) -> n + c.len) 0 chunks in
  (match chunks with
  | [] -> ()
  | _ ->
      let buf = Bytes.create total in
      ignore
        (List.fold_left
           (fun at (c : Chunk.t) ->
             Bytes.blit_string c.src c.off buf at c.len;
             at + c.len)
           0 chunks
          : int);
      Vfs.write_synced t.vfs Append t.file (fun write ->
          write (Bytes.unsafe_to_string buf)));
  t.size <- start + total;
  start

type resolution =
  | Dup of int
  | Fresh of { key : int; attempt : int }

(* Does [run.[off .. off+len-1]] hold exactly [c]'s bytes? *)
let equal_at run off len (c : Chunk.t) =
  len = c.len && Chunk.equal_sub run off c.src c.off len

(* Is the stored chunk under [key] byte-identical to [c]? *)
let equal_stored t key c =
  let buf, starts = fetch t [| key |] in
  equal_at buf starts.(0) (chunk_len t key) c

(* Walk the salt ladder per chunk: the content key first, then salted
   rehashes. A key hit only counts as a duplicate if the bytes agree —
   otherwise it is a collision and the next rung is tried. Every
   content-key hit of the batch is compared in one {!fetch}; a salted rung
   (a collision happened) reads its own. [pending] holds the batch's fresh
   chunks, so the rest of the batch dedups (and collides) against them
   too. *)
let resolve t batch =
  let chunks = Array.of_list batch in
  let n = Array.length chunks in
  let key i = chunks.(i).Chunk.key in
  let hits =
    Array.of_list (List.filter (fun i -> mem t (key i)) (List.init n Fun.id))
  in
  let stored_equal = Array.make n false in
  let buf, starts = fetch t (Array.map key hits) in
  Array.iteri
    (fun j i ->
      stored_equal.(i) <-
        equal_at buf starts.(j) (chunk_len t (key i)) chunks.(i))
    hits;
  let pending = Idtbl.create n and pending_chunks = Array.copy chunks in
  List.mapi
    (fun i (c : Chunk.t) ->
      let rec go attempt =
        if attempt > Chunk.max_salt_attempts then
          failwith "Pack.resolve: salted rehash attempts exhausted"
        else
          let key = if attempt = 0 then c.key else Chunk.salted_key c ~attempt in
          let same =
            if not (mem t key) then (
              match Idtbl.find pending key with
              | -1 -> None
              | p ->
                  let q = pending_chunks.(p) in
                  Some (equal_at q.Chunk.src q.Chunk.off q.Chunk.len c))
            else if attempt = 0 then Some stored_equal.(i)
            else Some (equal_stored t key c)
          in
          match same with
          | Some true -> Dup key
          | Some false -> go (attempt + 1)
          | None ->
              pending_chunks.(Idtbl.add pending key) <- c;
              Fresh { key; attempt }
      in
      go 0)
    batch

(* ------------------------------------------------------------------ *)
(* GC.                                                                 *)

let stage_rewrite t groups =
  let tmp = Vfs.temp_of t.file in
  Vfs.write_synced t.vfs Trunc tmp (fun write ->
      List.iter
        (fun keys -> Array.iter write (read_many t (Array.of_list keys)))
        groups);
  tmp
