open Ickpt_core
open Ickpt_stream

type collision = {
  col_epoch : int;
  col_content_key : int;
  col_stored_key : int;
  col_attempt : int;
}

(* ------------------------------------------------------------------ *)
(* The committed image.                                                *)

(* Where a record lies, as one int: a chunk number above [off_bits], the
   offset within that chunk below. A chain's chunks are numbered from its
   newest full on: that full's chunks, then those of each incremental
   since, in entry order; a folded full numbers its own new chunks after
   them. *)
let off_bits = 31

let off_mask = (1 lsl off_bits) - 1

let[@inline] place s off =
  if off < 0 || off > off_mask then -1 else (s lsl off_bits) lor off

(* A committed body: its [n] records' ids, where each starts in it (the
   records tile it) and where each lies. *)
type layer = {
  body : string;
  ids : int array;
  offs : int array;
  at : int array;
  n : int;
}

(* Where record [r <= n] starts: the body's end for [r = n]. *)
let start l r =
  if r < l.n then Array.unsafe_get l.offs r else String.length l.body
[@@inline]

let stop l r = start l (r + 1) [@@inline]

(* What a chain has committed since its newest full, as it committed it:
   that full and the lengths of its chunks, its incrementals since
   (newest first), how many chunks those entries name, and the
   incrementals' body bytes. A commit makes a new one and none is changed
   once made, so a snapshot read outside a lock stays whole. *)
type snapshot = {
  full : layer;
  lens : int array;
  since : layer list;
  chunks : int;
  bytes : int;
}

(* The places of a body committed whole, cut every [records_per_chunk]
   records, its chunks numbered from [first]. *)
let tiled ~first ~records_per_chunk ~offs ~n =
  Array.init n (fun r ->
      let c = r / records_per_chunk in
      place (first + c) (offs.(r) - offs.(c * records_per_chunk)))

(* The lengths of the chain's chunks since its newest full, by number:
   the full's as it committed them, then each incremental's, whose
   records tile its chunks, so that a chunk ends where its last record
   does. *)
let source_lens s =
  let lens = Array.make s.chunks 0 in
  Array.blit s.lens 0 lens 0 (Array.length s.lens);
  List.iter
    (fun l ->
      for r = 0 to l.n - 1 do
        let a = l.at.(r) in
        if a >= 0 then begin
          let c = a lsr off_bits and e = (a land off_mask) + stop l r - l.offs.(r) in
          if e > lens.(c) then lens.(c) <- e
        end
      done)
    s.since;
  lens

(* ------------------------------------------------------------------ *)
(* The chain's live records.                                           *)

(* Where each of [n] ids (a full's) first lies among them. [Dense] when
   they span fewer than [dense_span] values a record, as a heap's ids do,
   numbered from 0 by allocation: [pos.(id - lo)], or [-1] for an id
   missing. Otherwise [Sorted]: the positions ordered by id, ties by
   position, searched by halving. *)
type positions =
  | Dense of { lo : int; pos : int array }
  | Sorted of int array

let dense_span = 4

let positions ids n =
  let lo = ref max_int and hi = ref min_int in
  for k = 0 to n - 1 do
    let id = ids.(k) in
    if id < !lo then lo := id;
    if id > !hi then hi := id
  done;
  let span = !hi - !lo in
  if n > 0 && span >= 0 && span < dense_span * n then begin
    let pos = Array.make (span + 1) (-1) in
    for k = n - 1 downto 0 do
      pos.(ids.(k) - !lo) <- k
    done;
    Dense { lo = !lo; pos }
  end
  else begin
    let by_id = Array.init n Fun.id in
    Array.stable_sort (fun a b -> Int.compare ids.(a) ids.(b)) by_id;
    Sorted by_id
  end

(* The index of [id] among the [ids] [positions] were made of, or [-1]. *)
let index_of positions ids id =
  match positions with
  | Dense { lo; pos } ->
      let i = id - lo in
      if i >= 0 && i < Array.length pos then pos.(i) else -1
  | Sorted by_id ->
      let lo = ref 0 and hi = ref (Array.length by_id) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if ids.(by_id.(mid)) < id then lo := mid + 1 else hi := mid
      done;
      if !lo < Array.length by_id && ids.(by_id.(!lo)) = id then by_id.(!lo) else -1

let id_index ids =
  let p = positions ids (Array.length ids) in
  fun id -> index_of p ids id

(* The image's newest record of each id, by reference: [layers] are its
   full, then its incrementals oldest first, and a record is named by one
   int, its layer above [off_bits] and its index there below. [over.(k)]
   names the record of the full's [k]th id, and [extra.(Idtbl.find
   extra_ids id)] that of an id the full lacks. *)
type view = {
  layers : layer array;
  positions : positions;
  over : int array;
  extra_ids : Idtbl.t;
  mutable extra : int array;
}

let grow a = Array.append a (Array.make (Array.length a) 0)

(* Each incremental's records laid over the full's, oldest first: each
   looked up by its id, one step. *)
let view_of_snapshot (s : snapshot) =
  let v =
    { layers = Array.of_list (s.full :: List.rev s.since);
      positions = positions s.full.ids s.full.n;
      over = Array.make s.full.n 0;
      extra_ids = Idtbl.create 16;
      extra = Array.make 16 0 }
  in
  (* Each position names the full's own record until one is laid over. *)
  for k = 1 to s.full.n - 1 do
    v.over.(k) <- k
  done;
  for i = 1 to Array.length v.layers - 1 do
    let l = v.layers.(i) in
    for r = 0 to l.n - 1 do
      let id = l.ids.(r) and c = (i lsl off_bits) lor r in
      match index_of v.positions s.full.ids id with
      | -1 ->
          let j = Idtbl.add v.extra_ids id in
          if j = Array.length v.extra then v.extra <- grow v.extra;
          v.extra.(j) <- c
      | k -> v.over.(k) <- c
    done
  done;
  v

(* The place of the record of [id] that is [len] bytes at [pos] in
   [body], if it equals the chain's newest committed record of [id]
   ([-1]: none). A record of the full's ids moves [cursor] past its
   position there. *)
let place_of v cursor body id pos len =
  let c =
    match index_of v.positions v.layers.(0).ids id with
    | -1 -> ( match Idtbl.find v.extra_ids id with -1 -> -1 | j -> v.extra.(j))
    | k ->
        cursor := k + 1;
        v.over.(k)
  in
  if c < 0 then -1
  else
    let l = v.layers.(c lsr off_bits) and j = c land off_mask in
    let off = l.offs.(j) in
    if stop l j - off = len && Chunk.equal_sub body pos l.body off len then
      l.at.(j)
    else -1

(* Frame [body] and compare it with the view in one pass. Framing is
   deterministic, so where the bytes at a record boundary equal the live
   record at the cursor, they are that record, and that one comparison
   frames and places it. The cursor's run (the positions on from it whose
   live records follow one another in one layer, and so lie back to back
   in its body) is compared at once, up to the first byte that differs;
   every record of the run before it is framed and placed. Only a record
   that differs is framed by the schema and looked up by its id. Returns
   [(ids, offs, n, places)], the arrays sized by [hint] and untrimmed, as
   {!Restore.frames}'s. *)
let lockstep schema v ~hint body =
  let size = String.length body and inp = In_stream.of_string body in
  let f = v.layers.(0) and over = v.over in
  let cap = if hint > 16 then hint else 16 in
  let ids = ref (Array.make cap 0) and offs = ref (Array.make cap 0) in
  let places = ref (Array.make cap 0) in
  let n = ref 0 and cursor = ref 0 and pos = ref 0 in
  (* Room for [m] more records. *)
  let room m =
    let cap = Array.length !ids in
    if !n + m > cap then begin
      let wider a =
        let b = Array.make (if 2 * cap > !n + m then 2 * cap else !n + m) 0 in
        Array.blit !a 0 b 0 !n;
        a := b
      in
      wider ids;
      wider offs;
      wider places
    end
  in
  (* The run last found: the positions [run_start] to [run_stop - 1]. *)
  let run_start = ref 0 and run_stop = ref 0 in
  while !pos < size do
    let k = !cursor and p = !pos in
    let whole =
      k < f.n
      &&
      let c = over.(k) in
      if not (k >= !run_start && k < !run_stop) then begin
        let e = ref (k + 1) in
        while !e < f.n && over.(!e) = c + (!e - k) do
          incr e
        done;
        run_start := k;
        run_stop := !e
      end;
      let m = !run_stop - k in
      let l = v.layers.(c lsr off_bits) and j = c land off_mask in
      let lofs = l.offs and lat = l.at in
      let off = lofs.(j) in
      let len = start l (j + m) - off in
      let same =
        Chunk.common_prefix body p l.body off (if len < size - p then len else size - p)
      in
      room m;
      let r = !n and fids = f.ids and ids = !ids and offs = !offs in
      let places = !places and i = ref 0 in
      while !i < m && start l (j + !i + 1) - off <= same do
        let i' = !i in
        Array.unsafe_set ids (r + i') (Array.unsafe_get fids (k + i'));
        Array.unsafe_set offs (r + i') (p + Array.unsafe_get lofs (j + i') - off);
        Array.unsafe_set places (r + i') (Array.unsafe_get lat (j + i'));
        i := i' + 1
      done;
      if !i > 0 then begin
        n := r + !i;
        cursor := k + !i;
        pos := p + start l (j + !i) - off
      end;
      !i = m
    in
    if (not whole) && !pos < size then begin
      (* The record at [pos] is not the live one at the cursor. *)
      let p = !pos in
      In_stream.window inp ~pos:p ~len:(size - p);
      let id = Restore.skip_frame schema inp in
      let q = In_stream.pos inp in
      room 1;
      !ids.(!n) <- id;
      !offs.(!n) <- p;
      !places.(!n) <- place_of v cursor body id p (q - p);
      incr n;
      pos := q
    end
  done;
  (!ids, !offs, !n, !places)

(* ------------------------------------------------------------------ *)
(* Chains.                                                             *)

type progress = { next : int option; since_full_bytes : int; full_due : bool }

type chain = {
  schema : Ickpt_runtime.Schema.t;
  file : string;
  id : int;
  out : Out_stream.t;
  mutable entries : Epoch_index.entry list;  (* committed, oldest first *)
  mutable progress : progress;  (* of its taken epochs *)
  mutable image : snapshot option;  (* what its next fold reads *)
}

(* The chains whose next epoch must be full, for the whole process: the
   heap whose modified flags a lost take cleared outlives the store or
   service value that took it, so a reopen in the same process must still
   take a full. Keyed by a chain's file and its id there. *)
let due : (string * int, unit) Hashtbl.t = Hashtbl.create 8

let due_lock = Mutex.create ()

let with_due f =
  Mutex.lock due_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock due_lock) f

let logical_bytes entries =
  List.fold_left (fun acc (e : Epoch_index.entry) -> acc + e.size) 0 entries

let progress ~full_due entries =
  let incrementals =
    List.filter
      (fun (e : Epoch_index.entry) -> e.kind = Segment.Incremental)
      (Epoch_index.since_full entries ~epoch:max_int)
  in
  { next = Option.map succ (Epoch_index.newest entries);
    since_full_bytes = logical_bytes incrementals;
    full_due }

let chain ~file ~id schema entries =
  { schema;
    file;
    id;
    out = Out_stream.create ();
    entries;
    progress =
      progress entries ~full_due:(with_due (fun () -> Hashtbl.mem due (file, id)));
    image = None }

let schema c = c.schema

let entries c = c.entries

let take policy c write roots =
  let p = c.progress in
  let kind =
    if p.full_due then Segment.Full
    else Policy.decide policy ~next:p.next ~since_full_bytes:p.since_full_bytes
  in
  Chain.segment ~out:c.out ~kind ~seq:(Option.value p.next ~default:0) (write kind)
    roots

let admit c (seg : Segment.t) =
  let p = c.progress in
  let refusal =
    match Chain.continuity ~next:p.next seg.kind ~epoch:seg.seq with
    | Some b -> Some (Chain.describe b ~epoch:seg.seq)
    | None when p.full_due && seg.kind = Segment.Incremental ->
        Some
          (Printf.sprintf
             "incremental segment %d after a failed commit (a full is due)"
             seg.seq)
    | None -> None
  in
  if refusal = None then
    c.progress <-
      (match seg.kind with
      | Segment.Full ->
          { next = Some (seg.seq + 1); since_full_bytes = 0; full_due = false }
      | Segment.Incremental ->
          { p with
            next = Some (seg.seq + 1);
            since_full_bytes = p.since_full_bytes + Segment.body_size seg });
  refusal

let rebase c entries =
  c.entries <- entries;
  c.image <- None

(* ------------------------------------------------------------------ *)
(* Staging.                                                            *)

type against = (snapshot * int array) option

type body =
  | Split of Chunk.t list
  | Framed of {
      body : string;
      ids : int array;
      offs : int array;
      n : int;
      records_per_chunk : int;
      against : against;
    }

type item = {
  chain : chain;
  kind : Segment.kind;
  epoch : int;
  roots : int list;
  body : body;
}

(* A body holds about as many records as the chain's newest entry of its
   kind: a full as many, an incremental up to a quarter more. A full on a
   chain with an image is framed against it. *)
let item c ~records_per_chunk (seg : Segment.t) =
  let newest =
    List.fold_left
      (fun n (e : Epoch_index.entry) ->
        if e.kind = seg.kind then Epoch_index.dir_records e.dir else n)
      0 c.entries
  in
  let hint =
    match seg.kind with
    | Segment.Full -> newest
    | Segment.Incremental -> newest + (newest / 4)
  in
  let body =
    match (seg.kind, c.image) with
    | Segment.Full, Some s ->
        let ids, offs, n, places =
          lockstep c.schema (view_of_snapshot s) ~hint seg.body
        in
        Framed
          { body = seg.body; ids; offs; n; records_per_chunk;
            against = Some (s, places) }
    | _ ->
        let ids, offs, n = Restore.frames ~hint c.schema seg.body in
        Framed { body = seg.body; ids; offs; n; records_per_chunk; against = None }
  in
  { chain = c; kind = seg.kind; epoch = seg.seq; roots = seg.roots; body }

(* ------------------------------------------------------------------ *)
(* Folding a full.                                                     *)

let min_live_percent = 50

(* A folded full's records, in body order: each one's id, its offset
   within the chunk it lies in and its place, the chunks numbered in
   order of first reference as its entry lists them (unless two share a
   key); the sources' keys; its runs, as each one's chunk number (a
   source's, then [nsrc] on for its new chunks) and record count; per
   chunk number, that order's number ([-1]: unreferenced); and per
   referenced chunk, in that order, its length. *)
type runs = {
  ids : int array;
  offs : int array;
  at : int array;
  sources : int array;
  run_chunks : int array;
  run_counts : int array;
  order : int array;
  lens : int array;
}

(* What an item commits: its body's length, the chunks to resolve against
   the pack, and for a folded full where its records lie (otherwise the
   chunks tile the body). *)
type plan = { size : int; fresh : Chunk.t list; runs : runs option }

(* Fold a full whose record [r < n] has id [ids.(r)], starts at
   [offs.(r)] in [body] (the records tiling it) and equals the chain's
   newest committed record of its id where [places.(r) >= 0]: at that
   place, among the [sources] (the chain's chunks since its newest full,
   of lengths [lens]). An equal record stays where it lies, unless the
   records staying in its chunk would be less than [min_live_percent] of
   the chunk's bytes. The rest are copied, in body order, into new
   chunks. [None] when no record stays; otherwise [places] is overwritten
   with where each record lies in the entry.

   Two passes. The first cuts the records into stretches that lie in one
   source (or in none) and sums, per source, the bytes and the records
   that would stay; the stretches bound the runs. The second copies,
   cuts the runs and places every record. *)
let fold_full ~records_per_chunk ~sources ~lens ~body ~ids ~offs ~n ~places =
  let nsrc = Array.length sources and size = String.length body in
  let start r = if r < n then offs.(r) else size in
  let live = Array.make nsrc 0 and count = Array.make nsrc 0 in
  (* The stretch so far: from record [from] on, in source [last] ([-1]:
     none; [-2] before the first record). *)
  let stretches = ref 0 and last = ref (-2) and from = ref 0 in
  for r = 0 to n - 1 do
    let p = places.(r) in
    let s = if p >= 0 then p lsr off_bits else -1 in
    if s <> !last then begin
      let l = !last in
      if l >= 0 then begin
        live.(l) <- live.(l) + offs.(r) - offs.(!from);
        count.(l) <- count.(l) + r - !from
      end;
      incr stretches;
      last := s;
      from := r
    end
  done;
  (let l = !last in
   if l >= 0 then begin
     live.(l) <- live.(l) + size - offs.(!from);
     count.(l) <- count.(l) + n - !from
   end);
  (* A source too little of which stays gives its records up. *)
  let kept = ref 0 and kept_bytes = ref 0 in
  for s = 0 to nsrc - 1 do
    if live.(s) * 100 < min_live_percent * lens.(s) then live.(s) <- 0
    else begin
      kept := !kept + count.(s);
      kept_bytes := !kept_bytes + live.(s)
    end
  done;
  if !kept = 0 then None
  else begin
    (* The moved records, back to back: the new chunks' body, copied a
       stretch of consecutive records at a time. A source given up only
       joins runs of moved records, so a run starts where a stretch does
       or where the moved records reach a new chunk. *)
    let m = n - !kept in
    let fresh = (m + records_per_chunk - 1) / records_per_chunk in
    let bytes = Bytes.create (size - !kept_bytes) in
    let new_ids = Array.make m 0 and new_offs = Array.make m 0 in
    let within = Array.make n 0 in
    let most = !stretches + fresh in
    let run_chunks = Array.make most 0 and run_counts = Array.make most 0 in
    let order = Array.make (nsrc + fresh) (-1) in
    let referenced = ref 0 and q = ref 0 and moved = ref 0 in
    (* The current run: from record [run_from] on, in chunk [cur], the
       [cur_order]th referenced. *)
    let runs = ref 0 and run_from = ref 0 and cur = ref (-1) and cur_order = ref 0 in
    (* Where the stretch of moved records not copied yet starts in the
       body ([-1]: none), and where it goes. *)
    let stretch = ref (-1) and stretch_to = ref 0 in
    for r = 0 to n - 1 do
      let p = places.(r) in
      let chunk = ref 0 and w = ref 0 in
      if p >= 0 && live.(p lsr off_bits) <> 0 then begin
        if !stretch >= 0 then begin
          Bytes.blit_string body !stretch bytes !stretch_to (offs.(r) - !stretch);
          stretch := -1
        end;
        chunk := p lsr off_bits;
        w := p land off_mask
      end
      else begin
        let k = !q / records_per_chunk in
        if !stretch < 0 then begin
          stretch := offs.(r);
          stretch_to := !moved
        end;
        new_ids.(!q) <- ids.(r);
        new_offs.(!q) <- !moved;
        chunk := nsrc + k;
        w := !moved - new_offs.(k * records_per_chunk);
        moved := !moved + start (r + 1) - offs.(r);
        incr q
      end;
      let c = !chunk in
      if c <> !cur then begin
        if !runs > 0 then run_counts.(!runs - 1) <- r - !run_from;
        run_chunks.(!runs) <- c;
        incr runs;
        run_from := r;
        cur := c;
        if order.(c) < 0 then begin
          order.(c) <- !referenced;
          incr referenced
        end;
        cur_order := order.(c)
      end;
      within.(r) <- !w;
      places.(r) <- place !cur_order !w
    done;
    run_counts.(!runs - 1) <- n - !run_from;
    if !stretch >= 0 then
      Bytes.blit_string body !stretch bytes !stretch_to (size - !stretch);
    let chunk_lens = Array.make !referenced 0 in
    for c = 0 to nsrc + fresh - 1 do
      let o = order.(c) in
      if o >= 0 then
        chunk_lens.(o) <-
          (if c < nsrc then lens.(c)
           else
             let first = (c - nsrc) * records_per_chunk in
             let stop =
               if first + records_per_chunk < m then new_offs.(first + records_per_chunk)
               else !moved
             in
             stop - new_offs.(first))
    done;
    Some
      { size;
        fresh =
          Chunk.of_frames ~records_per_chunk (Bytes.unsafe_to_string bytes)
            ~ids:new_ids ~offs:new_offs ~n:m;
        runs =
          Some
            { ids = (if Array.length ids = n then ids else Array.sub ids 0 n);
              offs = within;
              at = (if Array.length places = n then places else Array.sub places 0 n);
              sources;
              run_chunks = Array.sub run_chunks 0 !runs;
              run_counts = Array.sub run_counts 0 !runs;
              order;
              lens = chunk_lens } }
  end

let whole chunks =
  { size = List.fold_left (fun n (c : Chunk.t) -> n + c.len) 0 chunks;
    fresh = chunks;
    runs = None }

(* A framed full on a chain with committed entries is folded against
   them: by the places found when it was framed if the chain's image has
   not moved since, else compared again, with the image or, if there is
   none, from the pack. Any other item, a full none of whose records
   stays, and one whose fold meets a corrupt chunk or directory are
   committed whole. *)
let plan pack (it : item) =
  match it.body with
  | Split chunks -> whole chunks
  | Framed { body; ids; offs; n; records_per_chunk; against } -> (
      let folded =
        match (it.kind, it.chain.entries) with
        | Segment.Full, (_ :: _ as entries) -> (
            let since = Epoch_index.since_full entries ~epoch:max_int in
            let sources =
              Array.of_list
                (List.concat_map (fun (e : Epoch_index.entry) -> e.chunks) since)
            in
            try
              let lens, places =
                match (against, it.chain.image) with
                | Some (s, places), Some s' when s == s' -> (source_lens s, places)
                | _, Some s ->
                    let _, _, _, places =
                      lockstep it.chain.schema (view_of_snapshot s) ~hint:n body
                    in
                    (source_lens s, places)
                | _, None ->
                    let live =
                      Dir.live pack ~entries
                        ~epoch:(Option.get (Epoch_index.newest entries))
                    in
                    ( Array.map (Pack.chunk_len pack) sources,
                      Array.init n (fun r ->
                          let pos = offs.(r) in
                          let len =
                            (if r + 1 < n then offs.(r + 1) else String.length body)
                            - pos
                          in
                          match Dir.find_equal live ids.(r) body ~pos ~len with
                          | Some (s, off) -> place s off
                          | None -> -1) )
              in
              fold_full ~records_per_chunk ~sources ~lens ~body ~ids ~offs ~n
                ~places
            with In_stream.Corrupt _ | Dir.Error _ -> None)
        | _ -> None
      in
      match folded with
      | Some p -> p
      | None -> whole (Chunk.of_frames ~records_per_chunk body ~ids ~offs ~n))

(* Resolve a batch's new chunks against the pack in one {!Pack.resolve}: a
   key hit is only a duplicate if the bytes agree, and a genuine collision
   degrades to a salted rehash instead of refusing the epoch. Returns, per
   plan, its new chunks' keys and the chunks it is the first to reference
   as [(index, chunk)], and the collisions in batch order. *)
let stage pack items plans =
  let resolved =
    Array.of_list (Pack.resolve pack (List.concat_map (fun p -> p.fresh) plans))
  in
  let next = ref 0 and collisions = ref [] in
  let staged =
    List.map2
      (fun (it : item) p ->
        let fresh = ref [] in
        let keys =
          List.mapi
            (fun i (c : Chunk.t) ->
              incr next;
              match resolved.(!next - 1) with
              | Pack.Dup key -> key
              | Pack.Fresh { key; attempt } ->
                  fresh := (i, c) :: !fresh;
                  if attempt > 0 then
                    collisions :=
                      { col_epoch = it.epoch;
                        col_content_key = c.key;
                        col_stored_key = key;
                        col_attempt = attempt }
                      :: !collisions;
                  key)
            p.fresh
        in
        (Array.of_list keys, List.rev !fresh))
      items plans
  in
  (staged, List.rev !collisions)

(* ------------------------------------------------------------------ *)
(* Chain rules.                                                        *)

type 'a index = {
  decode : (int -> int list) -> string -> pos:int -> 'a * int;
  encode : Out_stream.t -> 'a -> unit;
  chain : 'a -> int;
  entry : 'a -> Epoch_index.entry;
  make : int -> Epoch_index.entry -> 'a;
}

let plain =
  { decode = (fun prev s ~pos -> Epoch_index.decode ~prev:(prev 0) s ~pos);
    encode = Epoch_index.encode;
    chain = (fun _ -> 0);
    entry = Fun.id;
    make = (fun _ e -> e) }

let mux =
  { decode = (fun prev s ~pos -> Epoch_index.decode_mux ~prev s ~pos);
    encode = Epoch_index.encode_mux;
    chain = (fun m -> m.Epoch_index.m_tenant);
    entry = (fun m -> m.Epoch_index.m_entry);
    make = (fun m_tenant m_entry -> { Epoch_index.m_tenant; m_entry }) }

(* Longest valid prefix of one file's [(item, end offset)]s, given each
   entry's located end ([None]: its located chunks do not decode), and the
   largest located end it keeps: per chain, the oldest epoch full and the
   rest contiguous, every entry resolving against the pack — its located
   chunks inside the pack file and every chunk it names located. Its
   directory is not decoded here: an offset past its chunk is Dir's error
   at fold time, and check's finding. Crash-consistent operation never
   violates this (the pack is synced before the index), so rejections are
   defensive — but one cuts the whole file there, which keeps every chain
   in it a committed prefix. *)
let valid_prefix idx pack items ends =
  let next : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let size = Pack.physical_bytes pack in
  let rec go acc committed items ends =
    let cut () = (List.rev acc, committed) in
    match (items, ends) with
    | ((x, _) as item) :: items, Some stop :: ends ->
        let e = idx.entry x in
        if
          Chain.continuity ~next:(Hashtbl.find_opt next (idx.chain x)) e.kind
            ~epoch:e.epoch
          = None
          && stop <= size
          && List.for_all (Pack.mem pack) e.chunks
        then begin
          Hashtbl.replace next (idx.chain x) (e.epoch + 1);
          go (item :: acc) (max committed stop) items ends
        end
        else cut ()
    | _ -> cut ()
  in
  go [] 0 items ends

type 'a loaded = {
  file : string;
  size : int;
  items : ('a * int) list;  (* intact items, each with its end offset *)
}

(* Each entry's roots are decoded against the previous entry of its chain,
   so a chain whose roots do not change holds one list. *)
let load idx vfs path =
  let raw = Vfs.contents vfs path in
  let roots : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let prev chain = Option.value (Hashtbl.find_opt roots chain) ~default:[] in
  let items, valid =
    In_stream.intact_prefix
      (fun s ~pos ->
        let x, stop = idx.decode prev s ~pos in
        Hashtbl.replace roots (idx.chain x) (idx.entry x).roots;
        ((x, stop), stop))
      raw
  in
  if valid = 0 then Epoch_index.reject_older ~path raw;
  { file = path; size = String.length raw; items }

let rec drop n l = match l with _ :: l when n > 0 -> drop (n - 1) l | _ -> l

(* The pack's table is built from every file's entries at once: a chain
   may dedup against a chunk another file's entry located. Building it
   yields every entry's located end, which judges the entry and sizes the
   pack. An entry cut from one file may have located a chunk an entry of
   another names, so the table is rebuilt from what was kept until a pass
   cuts nothing. *)
let recover idx vfs pack loaded =
  let rec settle files =
    let ends =
      ref
        (Pack.reload pack
           (List.concat_map (List.map (fun (x, _) -> idx.entry x)) files))
    in
    let kept =
      List.map
        (fun items ->
          let k = valid_prefix idx pack items !ends in
          ends := drop (List.length items) !ends;
          k)
        files
    in
    if List.for_all2 (fun (a, _) b -> List.compare_lengths a b = 0) kept files
    then kept
    else settle (List.map fst kept)
  in
  let kept = settle (List.map (fun l -> l.items) loaded) in
  Pack.cut pack ~committed:(List.fold_left (fun n (_, c) -> max n c) 0 kept);
  List.map2
    (fun l (items, _) ->
      let len = List.fold_left (fun _ (_, stop) -> stop) 0 items in
      if len < l.size then vfs.Vfs.truncate l.file ~len;
      (List.map fst items, len))
    loaded kept

let check_entry pack (e : Epoch_index.entry) =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let hex = Hash64.to_hex in
  (match Epoch_index.located_end e with
  | stop when stop > Pack.physical_bytes pack ->
      err "locates chunks up to %d, past the pack's end (%d)" stop
        (Pack.physical_bytes pack)
  | _ -> ()
  | exception In_stream.Corrupt msg -> err "%s" msg);
  let data =
    Array.of_list
      (List.map
         (fun k ->
           match Pack.read pack k with
           | exception Not_found ->
               err "references missing chunk %s" (hex k);
               None
           | exception In_stream.Corrupt msg ->
               err "%s" msg;
               None
           | d ->
               if not (Chunk.key_matches k (Chunk.of_string d)) then
                 err "chunk %s content does not match its key" (hex k);
               Some d)
         e.chunks)
  in
  let records = ref [] in
  (match
     Epoch_index.iter_dir e (fun id c off -> records := (id, c, off) :: !records)
   with
  | () -> ()
  | exception In_stream.Corrupt msg ->
      records := [];
      err "%s" msg);
  List.iter
    (fun (d_id, d_chunk, d_off) ->
      match data.(d_chunk) with
      | None -> ()
      | Some d when d_off < 0 || d_off >= String.length d ->
          err "record %d offset %d out of range" d_id d_off
      | Some d -> (
          let inp = In_stream.of_string_at d ~pos:d_off in
          match In_stream.read_int inp with
          | id when id <> d_id ->
              err "directory entry for object %d lands on record %d" d_id id
          | _ -> ()
          | exception In_stream.Corrupt _ ->
              err "record %d at offset %d is truncated" d_id d_off))
    (List.rev !records);
  List.rev !errs

let check idx pack ~who items =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let next : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun x ->
      let e = idx.entry x in
      let who sep = match who x with None -> "" | Some w -> w ^ sep in
      (match
         Chain.continuity ~next:(Hashtbl.find_opt next (idx.chain x)) e.kind
           ~epoch:e.epoch
       with
      | None -> ()
      | Some Chain.Not_full ->
          err "%soldest epoch %d is not full" (who ": ") e.epoch
      | Some Chain.Negative ->
          err "%soldest epoch %d is negative" (who ": ") e.epoch
      | Some (Chain.Gap n) ->
          err "%sepoch %d follows %d" (who ": ") e.epoch (n - 1));
      Hashtbl.replace next (idx.chain x) (e.epoch + 1);
      List.iter (err "%sepoch %d: %s" (who " ") e.epoch) (check_entry pack e))
    items;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Committing.                                                         *)

type 'a committed = {
  entries : 'a list;
  collisions : collision list;
  fresh_chunks : int;
  bytes_written : int;
  index_bytes : int;
}

(* The entry of a staged item whose located chunks start at [at], and
   for a folded full where each of its records lies and the lengths of
   its chunks. A whole item's chunks are its split, in body order; a
   folded full's are each chunk its runs name, once, in order of first
   reference, and its fresh chunks are located in that order, which is
   the order they were cut in. The fold numbered its chunks so already,
   and placed its records by that number; only where two of its chunks
   share a key, and so one number, are they placed again. *)
let entry_of (it : item) p (keys, fresh) ~at =
  let crc (c : Chunk.t) = Crc32.sub c.src ~pos:c.off ~len:c.len in
  let chunks, located, dir, placed =
    match p.runs with
    | None ->
        ( Array.to_list keys,
          List.map (fun (i, (c : Chunk.t)) -> (i, c.len, crc c)) fresh,
          Epoch_index.code_dir (List.map (fun (c : Chunk.t) -> c.records) p.fresh),
          None )
    | Some f ->
        let nsrc = Array.length f.sources and referenced = Array.length f.lens in
        (* The referenced chunks' keys in the fold's order, numbered
           apart: the same numbers unless two share a key. *)
        let key = Array.make referenced 0 in
        Array.iteri
          (fun c o ->
            if o >= 0 then
              key.(o) <- (if c < nsrc then f.sources.(c) else keys.(c - nsrc)))
          f.order;
        let ords = Idtbl.create referenced in
        let ord = Array.map (Idtbl.add ords) key in
        let chunks = Array.map (fun c -> ord.(f.order.(c))) f.run_chunks in
        let placed =
          if Idtbl.length ords = referenced then (f.at, f.lens)
          else begin
            let lens = Array.make (Idtbl.length ords) 0 in
            Array.iteri (fun o len -> lens.(ord.(o)) <- len) f.lens;
            ( Array.map (fun a -> place ord.(a lsr off_bits) (a land off_mask)) f.at,
              lens )
          end
        in
        ( List.init (Idtbl.length ords) (Idtbl.key ords),
          List.map
            (fun (i, (c : Chunk.t)) -> (Idtbl.find ords keys.(i), c.len, crc c))
            fresh,
          Epoch_index.code_runs ~chunks ~counts:f.run_counts ~ids:f.ids
            ~offs:f.offs,
          Some placed )
  in
  ( { Epoch_index.epoch = it.epoch;
      kind = it.kind;
      folded = placed <> None;
      size = p.size;
      roots = it.roots;
      chunks;
      at;
      located = Epoch_index.code_located located;
      dir },
    placed )

(* Once an item is committed, it joins its chain's entries and the image
   moves on: a full starts a new one, an incremental adds its layer. An
   image whose incrementals' bodies would outgrow its full's is dropped,
   as is one a chunk list without framing would extend: the chain's next
   fold reads the pack. A full clears the chain's due mark. *)
let advance (it : item) p (e : Epoch_index.entry) placed =
  let c = it.chain in
  c.entries <- c.entries @ [ e ];
  if it.kind = Segment.Full then
    with_due (fun () -> Hashtbl.remove due (c.file, c.id));
  match it.body with
  | Split _ -> c.image <- None
  | Framed { body; ids; offs; n; records_per_chunk; _ } -> (
      let layer ~first =
        { body; ids; offs; n;
          at =
            (match placed with
            | Some (at, _) -> at
            | None -> tiled ~first ~records_per_chunk ~offs ~n) }
      in
      let chunks = List.length e.chunks in
      match (it.kind, c.image) with
      | Segment.Full, _ ->
          let lens =
            match placed with
            | Some (_, lens) -> lens
            | None -> Array.of_list (List.map (fun (c : Chunk.t) -> c.len) p.fresh)
          in
          c.image <-
            Some { full = layer ~first:0; lens; since = []; chunks; bytes = 0 }
      | Segment.Incremental, None -> ()
      | Segment.Incremental, Some s ->
          let bytes = s.bytes + String.length body in
          c.image <-
            (if bytes > String.length s.full.body then None
             else
               Some
                 { s with
                   since = layer ~first:s.chunks :: s.since;
                   chunks = s.chunks + chunks;
                   bytes }))

let commit_batch idx vfs ~path pack items =
  let plans = List.map (plan pack) items in
  let staged, collisions = stage pack items plans in
  let start =
    Pack.append pack
      (List.concat_map (fun (_, fresh) -> List.map snd fresh) staged)
  in
  (* Each entry locates its fresh chunks from where the previous entry's
     ended: the append wrote them back to back, in batch order. *)
  let stop, rev_entries =
    List.fold_left2
      (fun (at, acc) (it, p) st ->
        let e, placed = entry_of it p st ~at in
        ( List.fold_left (fun at (_, (c : Chunk.t)) -> at + c.len) at (snd st),
          (idx.make it.chain.id e, (it, p, e, placed)) :: acc ))
      (start, []) (List.combine items plans) staged
  in
  let entries, moves = List.split (List.rev rev_entries) in
  let index_bytes = Epoch_index.encode_batch idx.encode ~entry:idx.entry entries in
  if index_bytes <> "" then begin
    let before = if vfs.Vfs.exists path then vfs.Vfs.size path else 0 in
    try Vfs.write_synced vfs Append path (fun write -> write index_bytes)
    with e ->
      (* Not committed: whatever part of the batch landed is cut, so the
         next batch is not appended after torn bytes a reopen stops at. *)
      let bt = Printexc.get_raw_backtrace () in
      if vfs.Vfs.exists path && vfs.Vfs.size path > before then
        vfs.Vfs.truncate path ~len:before;
      Printexc.raise_with_backtrace e bt
  end;
  (* Committed: only now do its chunks join the table, CRC'd from the
     bytes just written, and its collisions belong to an epoch. *)
  List.iter
    (fun x -> ignore (Pack.locate pack ~checked:true (idx.entry x) : int))
    entries;
  (* Each chain moves on in batch order. *)
  List.iter (fun (it, p, e, placed) -> advance it p e placed) moves;
  { entries;
    collisions;
    fresh_chunks =
      List.fold_left (fun n (_, fresh) -> n + List.length fresh) 0 staged;
    bytes_written = stop - start + String.length index_bytes;
    index_bytes = String.length index_bytes }

(* A lost batch is lost with the modified flags its takes cleared: each
   of its chains goes back to its committed entries, and its next epoch
   must be full, in this process, across reopens. *)
let commit idx vfs ~path pack items =
  try commit_batch idx vfs ~path pack items
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    List.iter
      (fun (it : item) ->
        let c = it.chain in
        c.progress <- progress c.entries ~full_due:true;
        with_due (fun () -> Hashtbl.replace due (c.file, c.id) ()))
      items;
    Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* GC.                                                                 *)

let relocate pack entries =
  let seen = Hashtbl.create 256 in
  let at = ref 0 in
  List.split
    (List.map
       (fun (e : Epoch_index.entry) ->
         let start = !at in
         let firsts =
           List.concat
             (List.mapi
                (fun i k ->
                  if Hashtbl.mem seen k then []
                  else begin
                    Hashtbl.replace seen k ();
                    at := !at + Pack.chunk_len pack k;
                    [ (i, k) ]
                  end)
                e.chunks)
         in
         ( { e with
             at = start;
             located =
               Epoch_index.code_located
                 (List.map
                    (fun (i, k) ->
                      (i, Pack.chunk_len pack k, Pack.chunk_crc pack k))
                    firsts) },
           List.map snd firsts ))
       entries)

(* ------------------------------------------------------------------ *)
(* Reading entries back.                                               *)

(* A folded full's body is its records copied out in body order, each
   as long as the schema frames it, within its chunk. *)
let folded_body schema pack (e : Epoch_index.entry) =
  let keys = Array.of_list e.chunks in
  let buf, starts = Pack.fetch pack keys in
  let body = Buffer.create e.size in
  Epoch_index.iter_dir e (fun _ c off ->
      let pos = starts.(c) + off in
      let len =
        Restore.frame_len schema buf ~pos
          ~len:(max 0 (Pack.chunk_len pack keys.(c) - off))
      in
      Buffer.add_substring body buf pos len);
  Buffer.contents body

let segment schema pack (e : Epoch_index.entry) =
  { Segment.kind = e.kind;
    seq = e.epoch;
    roots = e.roots;
    body =
      (if e.folded then folded_body schema pack e
       else
         String.concat ""
           (Array.to_list (Pack.read_many pack (Array.of_list e.chunks)))) }

