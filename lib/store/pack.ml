open Ickpt_core
open Ickpt_stream

let magic = 0x4b504349 (* "ICPK" read as LE bytes; value is arbitrary *)

let version = 1

(* The key table: one slot per stored frame, in append order — which is
   file order, since frames are only ever walked front to back or appended
   at the end — as flat arrays: the chunk's key, where its frame starts in
   the file, where its body starts and how long it is, and whether the
   frame's CRC has been verified. No chunk byte is kept. [table] is open
   addressing from key to slot: [slot + 1] per bucket, 0 = empty, at most
   half full. Keys come from disk, so the bucket index folds every bit of
   the key into the low bits the mask keeps (as [Restore.slots] does for
   object ids). *)
type t = {
  vfs : Vfs.t;
  file : string;
  mutable size : int;  (* bytes of intact frames: the file's length *)
  mutable cut : int;  (* bytes the last open or reload cut off the tail *)
  mutable n : int;
  mutable keys : int array;
  mutable starts : int array;
  mutable offs : int array;
  mutable lens : int array;
  mutable checked : Bytes.t;  (* '\001' once the slot's CRC has held *)
  mutable table : int array;
  mutable buf : Bytes.t;  (* the one read buffer, allocated on first use *)
}

let hash x =
  let h = x * 0x9e3779b97f4a7c1 in
  h lxor (h lsr 32)

(* The bucket holding [key], or the empty bucket where it would go. *)
let bucket t key =
  let mask = Array.length t.table - 1 in
  let rec probe i =
    let e = t.table.(i) in
    if e = 0 || t.keys.(e - 1) = key then i else probe ((i + 1) land mask)
  in
  probe (hash key land mask)

let slot t key = t.table.(bucket t key) - 1

let slot_exn t key =
  match slot t key with -1 -> raise Not_found | s -> s

let grow a n =
  let b = Array.make (2 * n) 0 in
  Array.blit a 0 b 0 n;
  b

let initial = 256

let reset t =
  t.n <- 0;
  t.keys <- Array.make initial 0;
  t.starts <- Array.make initial 0;
  t.offs <- Array.make initial 0;
  t.lens <- Array.make initial 0;
  t.checked <- Bytes.make initial '\000';
  t.table <- Array.make (2 * initial) 0

(* The frame becomes the next slot unless its key is already stored: the
   first frame of a key wins, as a dedup hit would. *)
let add t ~key ~start ~off ~len ~checked =
  let b = bucket t key in
  if t.table.(b) = 0 then begin
    let s = t.n in
    if s = Array.length t.keys then begin
      t.keys <- grow t.keys s;
      t.starts <- grow t.starts s;
      t.offs <- grow t.offs s;
      t.lens <- grow t.lens s;
      t.checked <- Bytes.extend t.checked 0 s
    end;
    t.keys.(s) <- key;
    t.starts.(s) <- start;
    t.offs.(s) <- off;
    t.lens.(s) <- len;
    Bytes.set t.checked s (if checked then '\001' else '\000');
    t.table.(b) <- s + 1;
    t.n <- s + 1;
    if 2 * t.n > Array.length t.table then begin
      t.table <- Array.make (2 * Array.length t.table) 0;
      for s = 0 to t.n - 1 do
        t.table.(bucket t t.keys.(s)) <- s + 1
      done
    end
  end

let frame_end t s = t.offs.(s) + t.lens.(s) + 4

(* ------------------------------------------------------------------ *)
(* Frames.                                                             *)

let frame_size key len =
  4 + 1 + Varint.encoded_size key + Varint.encoded_size len + len + 4

(* Write the frame of the body [s.[off .. off+len-1]] into [b] at [pos],
   in place: the CRC runs over the header and body just written. Returns
   the position past the frame. *)
let put_frame b pos key s ~off ~len =
  Bytes.set_int32_le b pos (Int32.of_int magic);
  Bytes.set_uint8 b (pos + 4) version;
  let body = Varint.set b (Varint.set b (pos + 5) key) len in
  Bytes.blit_string s off b body len;
  let stop = body + len in
  Bytes.set_int32_le b stop
    (Int32.of_int
       (Crc32.sub (Bytes.unsafe_to_string b) ~pos ~len:(stop - pos)));
  stop + 4

(* The longest header: magic, version and two varints of at most 10 bytes. *)
let max_header = 4 + 1 + 10 + 10

(* The header of the frame at [pos] of [s]: (key, body length, body
   offset in [s]). Raises In_stream.Corrupt on a bad magic or version or a
   negative length. *)
let header s ~pos =
  let inp = In_stream.of_string_at s ~pos in
  let m = In_stream.read_fixed32 inp in
  if m <> magic then
    raise (In_stream.Corrupt (Printf.sprintf "bad pack magic %#x at %d" m pos));
  let v = In_stream.read_byte inp in
  if v <> version then
    raise (In_stream.Corrupt (Printf.sprintf "unsupported pack version %d" v));
  let key = In_stream.read_int inp in
  let len = In_stream.read_int inp in
  if len < 0 then
    raise (In_stream.Corrupt (Printf.sprintf "negative chunk length at %d" pos));
  (key, len, In_stream.pos inp)

let crc_at s ~pos = In_stream.read_fixed32 (In_stream.of_string_at s ~pos)

(* ------------------------------------------------------------------ *)
(* Open: one streamed walk over the frame headers.                     *)

let read_buffer_size = 65536

let buffer t =
  if Bytes.length t.buf = 0 then t.buf <- Bytes.create read_buffer_size;
  t.buf

(* A front-to-back reader over the file through the pack's buffer: [buf]
   holds the file's bytes [base .. base+fill-1]. A refill keeps what is
   still needed from [from] on, moves it to the front and fills the rest
   from where the buffer ended, so every byte of the file is read exactly
   once. *)
type cursor = {
  buf : Bytes.t;
  file_size : int;
  mutable base : int;
  mutable fill : int;
}

let refill t c ~from =
  let stop = c.base + c.fill in
  let keep = stop - from in
  Bytes.blit c.buf (from - c.base) c.buf 0 keep;
  let n = min (Bytes.length c.buf - keep) (c.file_size - stop) in
  t.vfs.Vfs.read_into t.file ~pos:stop c.buf ~off:keep ~len:n;
  c.base <- from;
  c.fill <- keep + n

(* Make the bytes [pos .. pos+need-1] resident, as far as the file goes. *)
let ensure t c ~pos ~need =
  if pos + need > c.base + c.fill && c.base + c.fill < c.file_size then
    refill t c ~from:pos

(* Read on until [pos] is resident, keeping nothing before it. *)
let rec reach t c pos =
  if pos > c.base + c.fill then begin
    refill t c ~from:(c.base + c.fill);
    reach t c pos
  end

(* CRC-32 of the file's bytes [from .. stop-1], read through the buffer. *)
let rec crc_through t c ~crc ~from ~stop =
  let upto = min stop (c.base + c.fill) in
  let crc =
    Crc32.sub ~crc (Bytes.unsafe_to_string c.buf) ~pos:(from - c.base)
      ~len:(upto - from)
  in
  if upto = stop then crc
  else begin
    refill t c ~from:upto;
    crc_through t c ~crc ~from:upto ~stop
  end

(* Walk the frame at [pos]: its header is decoded, and its CRC checked
   when it ends past [trusted]. Returns (key, body offset, length, checked,
   end). Raises In_stream.Corrupt on anything short of a whole frame with
   a well-formed header, or on a checked frame whose CRC disagrees. *)
let walk_frame t c ~trusted pos =
  ensure t c ~pos ~need:max_header;
  let key, len, hdr_end =
    header (Bytes.unsafe_to_string c.buf) ~pos:(pos - c.base)
  in
  let off = c.base + hdr_end in
  (* Buffer bytes past [fill] are stale: a header that reaches them ran
     past the end of the file. *)
  if off > c.base + c.fill || len > c.file_size - off - 4 then
    raise (In_stream.Corrupt (Printf.sprintf "torn pack frame at %d" pos));
  let next = off + len + 4 in
  let checked = next > trusted in
  if checked then begin
    let crc = crc_through t c ~crc:0 ~from:pos ~stop:(off + len) in
    ensure t c ~pos:(off + len) ~need:4;
    if
      crc_at (Bytes.unsafe_to_string c.buf) ~pos:(off + len - c.base) <> crc
    then raise (In_stream.Corrupt (Printf.sprintf "pack crc mismatch at %d" pos))
  end;
  reach t c next;
  (key, off, len, checked, next)

let load t ~committed =
  reset t;
  let size = if t.vfs.Vfs.exists t.file then t.vfs.Vfs.size t.file else 0 in
  let c =
    { buf = buffer t;
      file_size = size;
      base = 0;
      fill = 0 }
  in
  let trusted = min committed size in
  let rec go pos =
    if pos >= size then pos
    else
      match walk_frame t c ~trusted pos with
      | key, off, len, checked, next ->
          add t ~key ~start:pos ~off ~len ~checked;
          go next
      | exception In_stream.Corrupt _ -> pos
  in
  let valid = go 0 in
  (* Cut a torn tail off before the next append: garbage after the intact
     prefix would make every later frame unreachable. *)
  if valid < size then t.vfs.Vfs.truncate t.file ~len:valid;
  t.size <- valid;
  t.cut <- size - valid

let open_ ?(vfs = Vfs.real) ?(committed = 0) file =
  let t =
    { vfs; file; size = 0; cut = 0; n = 0; keys = [||]; starts = [||];
      offs = [||]; lens = [||]; checked = Bytes.empty; table = [||];
      buf = Bytes.empty }
  in
  load t ~committed;
  t

let reload t = load t ~committed:0

let path t = t.file

let mem t key = slot t key >= 0

let chunk_len t key = t.lens.(slot_exn t key)

let keys t = List.init t.n (Array.get t.keys)

let length t = t.n

let physical_bytes t = t.size

let cut_bytes t = t.cut

(* ------------------------------------------------------------------ *)
(* Reads: positional, one per run of nearby frames.                    *)

(* Frames whose gap is at most this many bytes share one read: reading
   the gap costs less than a second call. *)
let coalesce_gap = 4096

(* Check slot [s]'s CRC, unless it has held before, from [run], the
   file's bytes from [base] on. *)
let check_in t s run ~base =
  if Bytes.get t.checked s = '\000' then begin
    let start = t.starts.(s) - base and stop = t.offs.(s) + t.lens.(s) - base in
    if crc_at run ~pos:stop <> Crc32.sub run ~pos:start ~len:(stop - start)
    then
      raise
        (In_stream.Corrupt
           (Printf.sprintf "pack crc mismatch at %d (chunk %s)" t.starts.(s)
              (Hash64.to_hex t.keys.(s))));
    Bytes.set t.checked s '\001'
  end

(* Fetch the frames of [slots] in file order, one read into the pack's
   buffer per run of frames whose gaps are at most [coalesce_gap] and that
   fit the buffer together (a bigger frame is read into a string of its
   own); CRC-check each unchecked one from those bytes; and call [f i run
   off len] per index [i] of [slots], its body being
   [run.[off .. off+len-1]]. [run] may be the buffer: [f] must not keep
   it. *)
let visit t slots f =
  let n = Array.length slots in
  (* Slots are numbered in file order, so sorting the indices by slot
     sorts them by frame start. Each key packs (slot, index) into one int:
     both are array lengths, and their product fits. *)
  let order = Array.init n (fun i -> (slots.(i) * n) + i) in
  Array.stable_sort Int.compare order;
  let order = Array.map (fun v -> v mod n) order in
  let i = ref 0 in
  while !i < n do
    let first = slots.(order.(!i)) in
    let base = t.starts.(first) in
    let j = ref (!i + 1) and stop = ref (frame_end t first) in
    while
      !j < n
      &&
      let s = slots.(order.(!j)) in
      t.starts.(s) - !stop <= coalesce_gap
      && frame_end t s - base <= read_buffer_size
    do
      stop := max !stop (frame_end t slots.(order.(!j)));
      incr j
    done;
    let len = !stop - base in
    let run =
      try
        if len > read_buffer_size then Vfs.read_at t.vfs t.file ~pos:base ~len
        else begin
          t.vfs.Vfs.read_into t.file ~pos:base (buffer t) ~off:0 ~len;
          Bytes.unsafe_to_string (buffer t)
        end
      with Vfs.Out_of_range msg -> raise (In_stream.Corrupt msg)
    in
    for k = !i to !j - 1 do
      let s = slots.(order.(k)) in
      check_in t s run ~base;
      f order.(k) run (t.offs.(s) - base) t.lens.(s)
    done;
    i := !j
  done

let read_many t keys =
  let out = Array.make (Array.length keys) "" in
  visit t (Array.map (slot_exn t) keys) (fun i run off len ->
      out.(i) <- String.sub run off len);
  out

let read t key = (read_many t [| key |]).(0)

(* ------------------------------------------------------------------ *)
(* Appends.                                                            *)

let append_batch t batch =
  match batch with
  | [] -> 0
  | _ ->
      List.iter
        (fun (key, _) ->
          if mem t key then invalid_arg "Pack.append_batch: duplicate key")
        batch;
      let frames =
        Bytes.create
          (List.fold_left
             (fun n (k, body) -> n + frame_size k (String.length body))
             0 batch)
      in
      ignore
        (List.fold_left
           (fun pos (key, body) ->
             put_frame frames pos key body ~off:0 ~len:(String.length body))
           0 batch
          : int);
      let frames = Bytes.unsafe_to_string frames in
      Vfs.write_synced t.vfs Append t.file (fun write -> write frames);
      (* Each new frame is decoded and CRC-checked once, from the bytes
         just written, and is never checked again. *)
      let pos = ref 0 in
      List.iter
        (fun (key, _) ->
          let k, len, off = header frames ~pos:!pos in
          assert (k = key);
          assert (
            crc_at frames ~pos:(off + len)
            = Crc32.sub frames ~pos:!pos ~len:(off + len - !pos));
          add t ~key ~start:(t.size + !pos) ~off:(t.size + off) ~len
            ~checked:true;
          pos := off + len + 4)
        batch;
      t.size <- t.size + String.length frames;
      String.length frames

type resolution =
  | Dup of int
  | Fresh of { key : int; attempt : int }

external get64u : string -> int -> int64 = "%caml_string_get64u"

(* Does [run.[off .. off+len-1]] hold exactly [data]? Compared in place,
   eight bytes at a time, unchecked once the window is known to lie
   inside both strings. *)
let equal_at run off len data =
  len = String.length data
  && off >= 0
  && off <= String.length run - len
  &&
  let i = ref 0 in
  while !i + 8 <= len && get64u run (off + !i) = get64u data !i do
    i := !i + 8
  done;
  while
    !i < len && String.unsafe_get run (off + !i) = String.unsafe_get data !i
  do
    incr i
  done;
  !i = len

(* Walk the salt ladder per chunk: the content key first, then salted
   rehashes. A key hit only counts as a duplicate if the bytes agree —
   otherwise it is a collision and the next rung is tried. Every
   content-key hit of the batch is compared in one {!visit}; a salted rung
   (a collision happened) reads its own. [pending] holds the batch's fresh
   chunks, so the rest of the batch dedups (and collides) against them
   too. *)
let resolve t batch =
  let chunks = Array.of_list batch in
  let hits =
    Array.of_list
      (List.filter
         (fun i -> mem t (fst chunks.(i)))
         (List.init (Array.length chunks) Fun.id))
  in
  let stored_equal = Array.make (Array.length chunks) false in
  visit t
    (Array.map (fun i -> slot t (fst chunks.(i))) hits)
    (fun j run off len ->
      stored_equal.(hits.(j)) <- equal_at run off len (snd chunks.(hits.(j))));
  let pending = Hashtbl.create 16 in
  List.mapi
    (fun i (key, data) ->
      let rec go attempt =
        if attempt > Chunk.max_salt_attempts then
          failwith "Pack.resolve: salted rehash attempts exhausted"
        else
          let key =
            if attempt = 0 then key else Chunk.salted_key data ~attempt
          in
          let same =
            if not (mem t key) then
              Option.map (String.equal data) (Hashtbl.find_opt pending key)
            else if attempt = 0 then Some stored_equal.(i)
            else Some (String.equal data (read t key))
          in
          match same with
          | Some true -> Dup key
          | Some false -> go (attempt + 1)
          | None ->
              Hashtbl.replace pending key data;
              Fresh { key; attempt }
      in
      go 0)
    batch

(* ------------------------------------------------------------------ *)
(* GC.                                                                 *)

let stage_rewrite t ~keep =
  let tmp = Vfs.temp_of t.file in
  let kept =
    Array.of_list (List.filter (fun s -> keep t.keys.(s)) (List.init t.n Fun.id))
  in
  let bytes = ref 0 in
  Vfs.write_synced t.vfs Trunc tmp (fun write ->
      (* Slots are in file order, so [visit] copies in append order. *)
      visit t kept (fun i run off len ->
          let key = t.keys.(kept.(i)) in
          let f = Bytes.create (frame_size key len) in
          ignore (put_frame f 0 key run ~off ~len : int);
          bytes := !bytes + Bytes.length f;
          write (Bytes.unsafe_to_string f)));
  (tmp, !bytes)
