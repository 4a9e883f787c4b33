(* Tests for the content-addressed store: Hash64 vectors, record-aligned
   chunking, pack/index framing and torn-tail handling, dedup, O(live)
   restore vs chain replay, diff, GC/refcounts, the store as checkpoint
   manager (policy, resume equivalence), the stale-temp sweep regression,
   a smoke run of the store crash sweep, and the QCheck round-trip
   property over synthetic heaps. *)

open Ickpt_stream
open Ickpt_runtime
open Ickpt_core
open Ickpt_faultsim
open Ickpt_cas
module Service = Ickpt_service.Service

let encode_entry e = Test_util.stream_bytes (fun d -> Epoch_index.encode d e)

let encode_mux_entry m =
  Test_util.stream_bytes (fun d -> Epoch_index.encode_mux d m)

let framed ~magic ~version write =
  Test_util.stream_bytes (fun d -> Out_stream.framed d ~magic ~version write)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let store_path = "s.ckpt"

(* An entry's directory as [(id, chunk index, offset)] triples, and its
   coding back from them (records grouped by chunk, write order kept
   within each). *)
let dir_triples (e : Epoch_index.entry) =
  let l = ref [] in
  Epoch_index.iter_dir e (fun id c off -> l := (id, c, off) :: !l);
  List.rev !l

(* Flat [(id, offset)] pairs, as a chunk's records are kept. *)
let flat pairs = Array.of_list (List.concat_map (fun (i, o) -> [ i; o ]) pairs)

let dir_of_triples ~nchunks triples =
  Epoch_index.code_dir
    (List.init nchunks (fun c ->
         flat
           (List.filter_map
              (fun (id, c', off) -> if c' = c then Some (id, off) else None)
              triples)))

(* A chunk's bytes, and its records as [(id, offset)] pairs. *)
let chunk_data (c : Chunk.t) = String.sub c.src c.off c.len

let record_pairs (c : Chunk.t) =
  List.init (Array.length c.records / 2) (fun r ->
      (c.records.(2 * r), c.records.((2 * r) + 1)))

(* An entry's located chunks as [(key, pos, len, crc)]. *)
let located_list (e : Epoch_index.entry) =
  let l = ref [] in
  Epoch_index.iter_located e (fun k ~pos ~len ~crc ->
      l := (k, pos, len, crc) :: !l);
  List.rev !l

(* Entries compare by their fields and decoded slices: a decoded slice is
   part of whatever string it was read from. *)
let entry_view (e : Epoch_index.entry) =
  (e.epoch, e.kind, e.roots, e.chunks, located_list e, dir_triples e)

(* A chain of no entries in the index [idx], for committing chunks cut
   already. *)
let bare_chain ?(id = 0) idx = Epochs.chain ~file:idx ~id (Schema.create ()) []

(* Commit [(key, data)] chunks as one full entry of the bare index [idx]
   next to the pack: the way a chunk enters a pack's table. *)
let commit_chunks ?(idx = "p.idx") vfs pack ~epoch chunks =
  Epochs.commit Epochs.plain vfs ~path:idx pack
    [ { Epochs.chain = bare_chain idx;
        kind = Segment.Full;
        epoch;
        roots = [];
        body =
          Split
            (List.map (fun (key, data) -> { (Chunk.of_string data) with key })
               chunks) } ]

(* Reopen the pack [file] from the index [idx], as a store does. *)
let reopen_pack ?(idx = "p.idx") vfs file =
  let pack = Pack.open_ ~vfs file in
  ignore
    (Epochs.recover Epochs.plain vfs pack [ Epochs.load Epochs.plain vfs idx ]
      : (Epoch_index.entry list * int) list);
  pack

(* ------------------------------------------------------------------ *)
(* A small deterministic world (same shape as the crash sims).        *)

type world = {
  schema : Schema.t;
  roots : Model.obj list;
  mutate : int -> unit;
}

let make_world () =
  let schema = Schema.create () in
  let leaf = Schema.declare schema ~name:"Leaf" ~ints:1 ~children:0 () in
  let pair = Schema.declare schema ~name:"Pair" ~ints:2 ~children:2 () in
  let heap = Heap.create schema in
  let mk_leaf v =
    let o = Heap.alloc heap leaf in
    o.Model.ints.(0) <- v;
    o
  in
  let mk_pair a b l r =
    let o = Heap.alloc heap pair in
    o.Model.ints.(0) <- a;
    o.Model.ints.(1) <- b;
    o.Model.children.(0) <- Some l;
    o.Model.children.(1) <- Some r;
    o
  in
  let leaves = Array.init 8 (fun i -> mk_leaf i) in
  let pa = mk_pair 100 101 leaves.(0) leaves.(1) in
  let pb = mk_pair 102 103 leaves.(2) leaves.(3) in
  let pc = mk_pair 104 105 leaves.(4) leaves.(5) in
  let pd = mk_pair 106 107 leaves.(6) leaves.(7) in
  let qa = mk_pair 108 109 pa pb in
  let qb = mk_pair 110 111 pc pd in
  let root = mk_pair 112 113 qa qb in
  let objs = Array.concat [ [| root; qa; qb; pa; pb; pc; pd |]; leaves ] in
  let n = Array.length objs in
  let mutate r =
    Barrier.set_int objs.(r mod n) 0 (10_000 + (3 * r));
    Barrier.set_int objs.((r + 5) mod n) 0 (10_001 + (3 * r))
  in
  { schema; roots = [ root ]; mutate }

let roots_equal a b =
  List.length a = List.length b && List.for_all2 Deep_eq.equal a b

let full_body roots =
  let d = Out_stream.create () in
  Checkpointer.full_many d roots;
  Out_stream.contents d

(* ------------------------------------------------------------------ *)
(* Hash64.                                                            *)

let hash64_basics () =
  check_int "empty string is the offset basis" Hash64.init (Hash64.string "");
  (* FNV-1a("a") is the published 0xaf63dc4c8601ec8c; our arithmetic runs
     mod 2^63, which drops the top bit. *)
  check_string "known vector, folded" "2f63dc4c8601ec8c"
    (Hash64.to_hex (Hash64.string "a"));
  check_int "running hash composes"
    (Hash64.string "abcd")
    (Hash64.string ~h:(Hash64.string "ab") "cd");
  check_int "sub matches string on the window"
    (Hash64.string "abcd")
    (Hash64.sub "xabcdy" ~pos:1 ~len:4);
  check_int "bytes agrees with string"
    (Hash64.string "abc")
    (Hash64.bytes (Bytes.of_string "abc"));
  check_bool "distinct inputs, distinct keys" true
    (Hash64.string "a" <> Hash64.string "b");
  check_int "hex is fixed-width" 16 (String.length (Hash64.to_hex 1));
  (match Hash64.sub "abc" ~pos:2 ~len:5 with
  | _ -> Alcotest.fail "out-of-range window accepted"
  | exception Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Chunking.                                                          *)

let chunk_split_roundtrip () =
  let w = make_world () in
  let body = full_body w.roots in
  check_int "empty body, no chunks" 0
    (List.length (Chunk.split w.schema ""));
  let chunks = Chunk.split ~records_per_chunk:2 w.schema body in
  check_string "chunks concatenate to the body" body
    (String.concat "" (List.map chunk_data chunks));
  List.iter
    (fun (c : Chunk.t) ->
      check_bool "a slice of the body" true (c.src == body);
      check_bool "at most records_per_chunk records" true
        (List.length (record_pairs c) <= 2);
      check_int "key is the content hash" (Chunk.key_of (chunk_data c)) c.key;
      List.iter
        (fun (id, off) ->
          let r = Restore.record_at w.schema (chunk_data c) ~pos:off in
          check_int "directory offset decodes the right record" id
            r.Restore.rec_id)
        (record_pairs c))
    chunks;
  check_int "records partition the body" 15
    (List.fold_left (fun a c -> a + List.length (record_pairs c)) 0 chunks)

(* A localized mutation must leave every chunk after the affected one
   byte-identical — the record-index alignment that makes dedup work. *)
let chunk_alignment_stability () =
  let w = make_world () in
  let before = Chunk.split ~records_per_chunk:2 w.schema (full_body w.roots) in
  w.mutate 0;
  (* mutate 0 touches objs.(0) (the root, first record) and objs.(5). *)
  let after = Chunk.split ~records_per_chunk:2 w.schema (full_body w.roots) in
  check_int "same chunk count" (List.length before) (List.length after);
  let keys l = List.map (fun (c : Chunk.t) -> c.key) l in
  let shared =
    List.filter (fun k -> List.mem k (keys before)) (keys after)
  in
  check_bool "unchanged record runs dedup across versions" true
    (List.length shared >= List.length before - 2);
  check_bool "the mutated chunk does not" true
    (List.hd (keys after) <> List.hd (keys before))

(* The two-pass split [Chunk.split] replaced, kept as its oracle: every
   record's framing is decoded into a list first, its fields read one
   varint at a time, then the list is cut every [records_per_chunk]. *)
let reference_split ~records_per_chunk schema body =
  let inp = In_stream.of_string body in
  let frames = ref [] in
  while not (In_stream.at_end inp) do
    let start = In_stream.pos inp in
    let id = In_stream.read_int inp in
    let kid = In_stream.read_int inp in
    let klass =
      match Schema.find schema kid with
      | k -> k
      | exception Not_found ->
          raise
            (Restore.Error
               (Printf.sprintf "unknown class id %d in record %d" kid id))
    in
    for _ = 1 to klass.Model.n_ints + klass.Model.n_children do
      ignore (In_stream.read_int inp : int)
    done;
    frames := (id, start, In_stream.pos inp - start) :: !frames
  done;
  let rec chunks frames acc =
    match frames with
    | [] -> List.rev acc
    | (_, start, _) :: _ ->
        let rec take n stop recs = function
          | (id, off, len) :: rest when n < records_per_chunk ->
              take (n + 1) (off + len) ((id, off - start) :: recs) rest
          | rest -> (stop, List.rev recs, rest)
        in
        let stop, records, rest = take 0 start [] frames in
        let data = String.sub body start (stop - start) in
        chunks rest ((Chunk.key_of data, data, records) :: acc)
  in
  chunks (List.rev !frames) []

(* Same chunks, or the same typed error with the same message. *)
let split_outcome f =
  match f () with
  | chunks -> Ok chunks
  | exception Restore.Error msg -> Error ("Restore.Error: " ^ msg)
  | exception In_stream.Corrupt msg -> Error ("Corrupt: " ^ msg)

(* The split's slices tile the body, in order, each keyed by the hash of
   its bytes in place; as [(key, bytes, records)] they are the oracle's
   chunks. *)
let split_view body chunks =
  let stop =
    List.fold_left
      (fun at (c : Chunk.t) ->
        if not (c.src == body && c.off = at && c.len > 0) then
          Alcotest.failf "chunk at %d does not follow at %d" c.off at;
        if c.key <> Hash64.sub body ~pos:c.off ~len:c.len then
          Alcotest.failf "chunk at %d: key is not its slice's hash" c.off;
        at + c.len)
      0 chunks
  in
  if stop <> String.length body then
    Alcotest.failf "chunks end at %d of %d" stop (String.length body);
  List.map (fun c -> (c.Chunk.key, chunk_data c, record_pairs c)) chunks

let split_agrees ~records_per_chunk schema body =
  split_outcome (fun () ->
      split_view body (Chunk.split ~records_per_chunk schema body))
  = split_outcome (fun () -> reference_split ~records_per_chunk schema body)

(* Synthetic full and incremental bodies, at several chunk sizes, and
   every prefix of a small one (truncated records). *)
let chunk_split_oracle () =
  let synth =
    Ickpt_synth.Synth.build
      { Ickpt_synth.Synth.default_config with
        Ickpt_synth.Synth.n_structures = 60;
        pct_modified = 25;
        modified_lists = 1 }
  in
  let schema = synth.Ickpt_synth.Synth.schema in
  let roots = Ickpt_synth.Synth.roots synth in
  let full = full_body roots in
  ignore (Ickpt_synth.Synth.mutate_round synth : int);
  let incremental =
    let d = Out_stream.create () in
    Checkpointer.incremental_many d roots;
    Out_stream.contents d
  in
  List.iter
    (fun (what, body) ->
      List.iter
        (fun records_per_chunk ->
          check_bool
            (Printf.sprintf "%s body, %d records per chunk" what
               records_per_chunk)
            true
            (split_agrees ~records_per_chunk schema body))
        [ 1; 3; 16; 100_000 ])
    [ ("full", full); ("incremental", incremental) ];
  (* Framed with its arrays sized by a hint below, at or above its record
     count, a body cuts into the same chunks: the cells past the count
     are ignored. *)
  List.iter
    (fun (what, body) ->
      let _, _, count = Restore.frames schema body in
      List.iter
        (fun hint ->
          let ids, offs, n = Restore.frames ~hint schema body in
          check_bool
            (Printf.sprintf "%s body framed with hint %d" what hint)
            true
            (n = count
            && split_outcome (fun () ->
                   split_view body (Chunk.of_frames body ~ids ~offs ~n))
               = split_outcome (fun () ->
                     reference_split ~records_per_chunk:16 schema body)))
        [ 0; count / 2; count; count + (count / 4) ])
    [ ("full", full); ("incremental", incremental) ];
  check_bool "a count past the arrays is refused" true
    (match Chunk.of_frames full ~ids:[| 0 |] ~offs:[| 0 |] ~n:2 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "the synthetic bodies split without error" true
    (Result.is_ok
       (split_outcome (fun () -> Chunk.split schema full))
    && Result.is_ok (split_outcome (fun () -> Chunk.split schema incremental)));
  let w = make_world () in
  let small = full_body w.roots in
  for cut = 0 to String.length small do
    check_bool
      (Printf.sprintf "prefix of %d bytes" cut)
      true
      (split_agrees ~records_per_chunk:2 w.schema (String.sub small 0 cut))
  done

(* Random trees' bodies, cut anywhere, with one byte anywhere replaced
   (an unknown class id, a truncated varint), and plain random bytes. *)
let chunk_split_prop =
  QCheck2.Test.make ~name:"one-pass split = two-pass split" ~count:300
    QCheck2.Gen.(
      quad Test_util.tree_gen (int_range 1 5) (pair nat nat)
        (string_size ~gen:char (int_range 0 40)))
    (fun (tree, records_per_chunk, (cut, flip), noise) ->
      let env = Test_util.make_env () in
      let body = full_body [ Test_util.build env tree ] in
      let n = String.length body in
      let cut_body = String.sub body 0 (cut mod (n + 1)) in
      let flipped =
        let b = Bytes.of_string body in
        Bytes.set b (flip mod n) (Char.chr (flip / n mod 256));
        Bytes.to_string b
      in
      List.for_all
        (split_agrees ~records_per_chunk env.Test_util.schema)
        [ body; cut_body; flipped; noise ])

(* [Chunk.common_prefix] counts the bytes two windows share before the
   first that differs, as a byte-by-byte loop does, wherever the windows
   lie and wherever the difference falls (inside a 32- or 8-byte stride
   or in the tail); [Chunk.equal_sub] is whether they share all; a window
   outside its string is [false] for one and refused by the other. *)
let common_prefix_prop =
  QCheck2.Test.make ~name:"common_prefix = byte-by-byte" ~count:500
    QCheck2.Gen.(
      quad (string_size ~gen:char (int_range 0 100)) (int_range 0 8)
        (int_range 0 8) (pair (int_range (-1) 110) (int_range 0 120)))
    (fun (a, aoff, boff, (len, flip)) ->
      (* [b] holds [a] from [boff] on, its byte [flip] (if any) changed. *)
      let b =
        let b = Bytes.make (boff + String.length a) 'x' in
        Bytes.blit_string a 0 b boff (String.length a);
        if flip < String.length a then
          Bytes.set b (boff + flip) (Char.chr ((Char.code a.[flip] + 1) land 0xff));
        Bytes.to_string b
      in
      let inside s off = len >= 0 && off + len <= String.length s in
      if inside a aoff && inside b (boff + aoff) then begin
        let expected = ref 0 in
        while !expected < len && a.[aoff + !expected] = b.[boff + aoff + !expected] do
          incr expected
        done;
        let same = Chunk.common_prefix a aoff b (boff + aoff) len in
        same = !expected && Chunk.equal_sub a aoff b (boff + aoff) len = (same = len)
      end
      else
        (not (Chunk.equal_sub a aoff b (boff + aoff) len))
        &&
        match Chunk.common_prefix a aoff b (boff + aoff) len with
        | _ -> false
        | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Pack framing.                                                      *)

(* Append raw bytes to a file and sync. *)
let append_bytes (vfs : Vfs.t) path s =
  let w = vfs.Vfs.open_append path in
  w.Vfs.write s;
  w.Vfs.sync ();
  w.Vfs.close ()

(* What a vfs saw read from the files it counts: bytes, whole or
   positionally, and positional reads ([read_into] calls). *)
type reads = { mutable bytes : int; mutable calls : int }

(* A vfs counting what is read from files ending in [suffix]. *)
let counting_vfs inner ~suffix =
  let r = { bytes = 0; calls = 0 } in
  let ours path = String.ends_with ~suffix path in
  ( { inner with
      Vfs.read_file =
        (fun p ->
          let d = inner.Vfs.read_file p in
          if ours p then r.bytes <- r.bytes + String.length d;
          d);
      read_into =
        (fun p buf runs ->
          if ours p then begin
            r.calls <- r.calls + 1;
            List.iter (fun (_, _, len) -> r.bytes <- r.bytes + len) runs
          end;
          inner.Vfs.read_into p buf runs) },
    r )

let pack_roundtrip_and_torn_tail () =
  let sim = Sim.create () in
  let vfs = Sim.vfs sim in
  let p = Pack.open_ ~vfs "p.pack" in
  let d1 = "chunk one body" and d2 = "chunk two" in
  let k1 = Chunk.key_of d1 and k2 = Chunk.key_of d2 in
  let c = commit_chunks vfs p ~epoch:0 [ (k1, d1); (k2, d2) ] in
  check_string "the pack holds the bare bodies" (d1 ^ d2)
    (vfs.Vfs.read_file "p.pack");
  check_int "pack bytes written" (String.length (d1 ^ d2))
    (c.Epochs.bytes_written - c.Epochs.index_bytes);
  check_string "read back 1" d1 (Pack.read p k1);
  check_string "read back 2" d2 (Pack.read p k2);
  check_bool "mem" true (Pack.mem p k1 && Pack.mem p k2);
  check_int "chunk_len" (String.length d2) (Pack.chunk_len p k2);
  check_int "chunk_crc" (Crc32.string d2) (Pack.chunk_crc p k2);
  check_int "length" 2 (Pack.length p);
  check_int "a stored chunk is not appended again" 0
    (commit_chunks vfs p ~epoch:1 [ (k1, d1) ]).Epochs.fresh_chunks;
  (* Bytes past the committed length are cut away on reopen. *)
  let intact = Pack.physical_bytes p in
  let w = vfs.Vfs.open_append "p.pack" in
  w.Vfs.write "ICPKgarbage-not-a-frame";
  w.Vfs.sync ();
  w.Vfs.close ();
  let p2 = reopen_pack vfs "p.pack" in
  check_int "torn tail dropped" 2 (Pack.length p2);
  check_int "file truncated to the committed length" intact
    (Pack.physical_bytes p2);
  check_int "cut reported" 23 (Pack.cut_bytes p2);
  check_string "intact chunks survive" d1 (Pack.read p2 k1)

(* 200 appends of mixed sizes, one to three chunks each; every chunk reads
   back the same before and after reopen, and the pack's size is exactly
   the file's. *)
let pack_growth () =
  let sim = Sim.create () in
  let vfs = Sim.vfs sim in
  let p = Pack.open_ ~vfs "g.pack" in
  let body i =
    String.init ((i * 37 mod 3000) + (i mod 7)) (fun j ->
        Char.chr ((i + j) land 0xff))
  in
  let chunks =
    List.init 200 (fun i ->
        let d = Printf.sprintf "%d:" i ^ body i in
        (Chunk.key_of d, d))
  in
  let rec batches i = function
    | [] -> ()
    | l ->
        let n = 1 + (i mod 3) in
        let batch = List.filteri (fun j _ -> j < n) l in
        ignore (commit_chunks vfs p ~epoch:i batch : _ Epochs.committed);
        batches (i + 1) (List.filteri (fun j _ -> j >= n) l)
  in
  batches 0 chunks;
  let check_all name p =
    List.iter
      (fun (k, d) ->
        check_string (name ^ ": chunk reads back") d (Pack.read p k))
      chunks;
    check_int (name ^ ": every chunk") 200 (Pack.length p);
    check_int (name ^ ": physical bytes = file size")
      (String.length (vfs.Vfs.read_file "g.pack"))
      (Pack.physical_bytes p)
  in
  check_all "appended" p;
  check_bool "grew past a few doublings" true (Pack.physical_bytes p > 8 * 4096);
  check_all "reopened" (reopen_pack vfs "g.pack")

(* A reopen that cut a torn tail, then an append: the file is the intact
   prefix followed by exactly the new bodies, and a string the vfs handed
   out before is left as it was — the simulator returns its own file
   string, and the pack's reads land in the pack's own buffer. *)
let pack_torn_tail_then_append () =
  let sim = Sim.create () in
  let vfs = Sim.vfs sim in
  let chunk d = (Chunk.key_of d, d) in
  let p = Pack.open_ ~vfs "t.pack" in
  ignore
    (commit_chunks vfs p ~epoch:0 [ chunk "first"; chunk "second" ]
      : _ Epochs.committed);
  let intact = vfs.Vfs.read_file "t.pack" in
  (* Half of a body far longer than the batch appended below. *)
  append_bytes vfs "t.pack" (String.make 2000 't');
  let handed = vfs.Vfs.read_file "t.pack" in
  let handed_copy = String.init (String.length handed) (String.get handed) in
  let p = reopen_pack vfs "t.pack" in
  let batch = [ chunk "third"; chunk (String.make 100 'x') ] in
  ignore (commit_chunks vfs p ~epoch:1 batch : _ Epochs.committed);
  check_string "intact prefix, then the new bodies"
    (intact ^ String.concat "" (List.map snd batch))
    (vfs.Vfs.read_file "t.pack");
  check_string "the bytes read at reopen are untouched" handed_copy handed;
  List.iter
    (fun (k, d) ->
      check_string "reads back in the open pack" d (Pack.read p k);
      check_string "reads back after reopen" d
        (Pack.read (reopen_pack vfs "t.pack") k))
    (chunk "first" :: chunk "second" :: batch)

(* A chunk that was committed before a reopen and one appended later keep
   resolving as duplicates and reading back through a torn-tail cut,
   further appends and a GC's rewrite + reload; the pack's size is the
   file's each time, and a string the vfs handed out is never written
   to. *)
let pack_slices () =
  let sim = Sim.create () in
  let vfs = Sim.vfs sim in
  let chunk d = (Chunk.key_of d, d) in
  let loaded = chunk (String.make 300 'l') in
  let entries = ref [] in
  let commit p epoch batch =
    let c = commit_chunks vfs p ~epoch batch in
    entries := !entries @ c.Epochs.entries
  in
  commit (Pack.open_ ~vfs "p.pack") 0 [ loaded ];
  append_bytes vfs "p.pack" "ICPK\001torn";
  let handed = vfs.Vfs.read_file "p.pack" in
  let handed_copy = String.init (String.length handed) (String.get handed) in
  let p = reopen_pack vfs "p.pack" in
  let appended = chunk (String.make 200 'a') in
  let check_both name =
    List.iter
      (fun (k, d) ->
        check_bool (name ^ ": resolves as a duplicate") true
          (Pack.resolve p [ Chunk.of_string d ] = [ Pack.Dup k ]);
        check_string (name ^ ": reads back") d (Pack.read p k))
      (loaded :: (if Pack.mem p (fst appended) then [ appended ] else []));
    check_int (name ^ ": physical bytes = file length")
      (String.length (vfs.Vfs.read_file "p.pack"))
      (Pack.physical_bytes p)
  in
  check_both "after the torn-tail cut";
  commit p 1 [ appended ];
  check_both "after an append";
  let dropped = chunk "dropped by gc" in
  commit p 2 [ dropped ];
  commit p 3 [ chunk "kept"; chunk (String.make 5000 'z') ];
  check_both "after further appends";
  let kept, groups =
    Epochs.relocate p (List.filter (fun e -> e.Epoch_index.epoch <> 2) !entries)
  in
  let tmp = Pack.stage_rewrite p groups in
  vfs.Vfs.rename ~src:tmp ~dst:"p.pack";
  ignore (Pack.reload p kept : int option list);
  check_bool "gc dropped the chunk" false (Pack.mem p (fst dropped));
  check_both "after gc's rewrite and reload";
  check_string "the string read at open is untouched" handed_copy handed

let index_roundtrip_and_torn_tail () =
  let sim = Sim.create () in
  let vfs = Sim.vfs sim in
  let e1 =
    { Epoch_index.epoch = 0; kind = Segment.Full; folded = false; size = 1;
      roots = [ 7 ]; chunks = [ Chunk.key_of "x" ]; at = 0;
      located = Epoch_index.code_located [ (0, 1, Crc32.string "x") ];
      dir = Epoch_index.code_dir [ [| 7; 0 |] ] }
  in
  let e2 =
    { Epoch_index.epoch = 1; kind = Segment.Incremental; folded = false;
      size = 2; roots = [ 7 ]; chunks = [ Chunk.key_of "y"; Chunk.key_of "x" ];
      at = 1;
      located = Epoch_index.code_located [ (0, 1, Crc32.string "y") ];
      dir = Epoch_index.code_dir [ [||]; [| 9; 3 |] ] }
  in
  List.iter
    (fun e ->
      Vfs.write_synced vfs Append "i.idx" (fun write ->
          write (encode_entry e)))
    [ e1; e2 ];
  let entries, valid = Epoch_index.load vfs "i.idx" in
  let views = List.map entry_view in
  check_bool "roundtrip" true (views entries = views [ e1; e2 ]);
  check_int "whole file valid" (String.length (vfs.Vfs.read_file "i.idx")) valid;
  (* Torn tail: half an entry. *)
  let half = String.sub (encode_entry e1) 0 6 in
  let w = vfs.Vfs.open_append "i.idx" in
  w.Vfs.write half;
  w.Vfs.sync ();
  w.Vfs.close ();
  let entries2, valid2 = Epoch_index.load vfs "i.idx" in
  check_bool "intact prefix survives a torn entry" true
    (views entries2 = views [ e1; e2 ]);
  check_int "valid offset excludes the torn entry" valid valid2

(* ------------------------------------------------------------------ *)
(* Store: append, restore vs chain replay, dedup, errors.             *)

(* Drive a chain and a store in lockstep for [rounds] epochs under a
   policy; returns (chain, store, world). *)
let drive ?(records_per_chunk = 4) ~policy ~rounds vfs =
  let w = make_world () in
  let chain = Chain.create w.schema in
  let store =
    Store.open_ ~vfs ~records_per_chunk w.schema ~path:store_path
  in
  for r = 0 to rounds - 1 do
    if r > 0 then w.mutate r;
    let taken =
      match
        Policy.decide policy ~next:(Chain.next chain)
          ~since_full_bytes:(Chain.since_full_bytes chain)
      with
      | Segment.Full -> Chain.take_full chain w.roots
      | Segment.Incremental -> Chain.take_incremental chain w.roots
    in
    ignore (Store.append_segment store taken.Chain.segment)
  done;
  (chain, store, w)

(* The segments chain replay restores epoch [e] from — the suffix from the
   newest full at or before [e] — and [e]'s roots. *)
let since_full chain ~epoch =
  let upto =
    List.filter (fun (s : Segment.t) -> s.seq <= epoch) (Chain.segments chain)
  in
  let rec cut acc = function
    | [] -> acc
    | (s : Segment.t) :: older -> (
        match s.kind with
        | Segment.Full -> s :: acc
        | Segment.Incremental -> cut (s :: acc) older)
  in
  (cut [] (List.rev upto), (List.nth upto (List.length upto - 1)).Segment.roots)

(* Chain-replay restoration of epoch [e]: what Chain.recover does, for an
   arbitrary epoch. *)
let replay_restore chain ~epoch =
  let segs, roots = since_full chain ~epoch in
  Restore.of_segments (Chain.schema chain) segs ~roots

(* The reference the restore paths are held to: decode every record into a
   newest-wins table, allocate every object, then link children by id. *)
let reference_restore schema segs ~roots =
  let table = Hashtbl.create 64 in
  List.iter
    (fun (s : Segment.t) ->
      List.iter
        (fun (r : Restore.record) -> Hashtbl.replace table r.rec_id r)
        (Restore.records_of_body schema s.body))
    segs;
  let heap = Heap.create schema in
  Hashtbl.iter
    (fun id (r : Restore.record) ->
      let o =
        Heap.alloc_with_id heap (Schema.find schema r.rec_kid) ~id
          ~modified:false
      in
      Array.blit r.rec_ints 0 o.Model.ints 0 (Array.length r.rec_ints))
    table;
  Hashtbl.iter
    (fun id (r : Restore.record) ->
      let o = Heap.find_exn heap id in
      Array.iteri
        (fun j c ->
          if c <> Model.null_id then
            o.Model.children.(j) <- Some (Heap.find_exn heap c))
        r.rec_child_ids)
    table;
  List.map (Heap.find_exn heap) roots

let reference_body chain ~epoch =
  let segs, roots = since_full chain ~epoch in
  full_body (reference_restore (Chain.schema chain) segs ~roots)

let store_restore_agrees_with_replay () =
  let sim = Sim.create () in
  let chain, store, w =
    drive ~policy:(Policy.Full_every 3) ~rounds:8 (Sim.vfs sim)
  in
  check_bool "epochs are 0..7" true (Store.epochs store = List.init 8 Fun.id);
  check_int "latest epoch" 7 (Option.get (Store.latest_epoch store));
  List.iter
    (fun (s : Segment.t) ->
      (* The exact segment comes back. *)
      check_bool
        (Printf.sprintf "segment_of_epoch %d roundtrips" s.seq)
        true
        (Store.segment_of_epoch store s.seq = s);
      check_bool "kind" true (Store.kind_of_epoch store s.seq = s.kind);
      check_bool "roots" true (Store.roots_of_epoch store s.seq = s.roots);
      let _, replayed = replay_restore chain ~epoch:s.seq in
      let _, stored = Store.restore store ~epoch:s.seq in
      check_bool
        (Printf.sprintf "restore ~epoch:%d agrees with chain replay" s.seq)
        true
        (roots_equal replayed stored);
      (* Byte-for-byte: a full checkpoint re-taken from either restored
         heap encodes identically. *)
      check_string "restored state re-encodes identically"
        (full_body replayed) (full_body stored))
    (Chain.segments chain);
  (* The latest epoch equals the live heap (flags were just cleared). *)
  let _, stored = Store.restore store ~epoch:7 in
  check_bool "latest epoch equals live state" true (roots_equal w.roots stored)

let store_dedup_and_stats () =
  (* A wide flat heap where each round mutates a single object: repeated
     fulls share almost every chunk, which is exactly the workload content
     addressing is for. *)
  let schema = Schema.create () in
  let leaf = Schema.declare schema ~name:"Leaf" ~ints:1 ~children:0 () in
  let hub = Schema.declare schema ~name:"Hub" ~ints:0 ~children:64 () in
  let heap = Heap.create schema in
  let root = Heap.alloc heap hub in
  let leaves =
    Array.init 64 (fun i ->
        let o = Heap.alloc heap leaf in
        o.Model.ints.(0) <- i;
        root.Model.children.(i) <- Some o;
        o)
  in
  let sim = Sim.create () in
  let store =
    Store.open_ ~vfs:(Sim.vfs sim) ~records_per_chunk:8 schema ~path:store_path
  in
  let root_ids = [ root.Model.info.Model.id ] in
  for r = 0 to 5 do
    if r > 0 then Barrier.set_int leaves.(r) 0 (50_000 + r);
    ignore
      (Store.append_segment store
         { Segment.kind = Segment.Full; seq = r; roots = root_ids;
           body = full_body [ root ] })
  done;
  let s = Store.stats store in
  check_int "six epochs" 6 s.Store.n_epochs;
  check_bool "dedup pays on repeated fulls" true (s.Store.dedup_ratio > 1.5);
  check_bool "fewer chunks than references" true
    (s.Store.n_chunks
    < List.fold_left (fun a (_, n) -> a + n) 0 (Store.refcounts store));
  check_bool "consistent" true (Store.check store = [])

let store_dedup_identical_full () =
  let sim = Sim.create () in
  let vfs = Sim.vfs sim in
  let w = make_world () in
  let store = Store.open_ ~vfs ~records_per_chunk:4 w.schema ~path:store_path in
  let root_ids = List.map (fun o -> o.Model.info.Model.id) w.roots in
  let body = full_body w.roots in
  let mk seq = { Segment.kind = Segment.Full; seq; roots = root_ids; body } in
  let st0 = Store.append_segment store (mk 0) in
  check_bool "first full writes chunks" true (st0.Store.chunks_new > 0);
  check_int "all fresh" st0.Store.chunks_total st0.Store.chunks_new;
  let st1 = Store.append_segment store (mk 1) in
  check_int "identical full writes nothing to the pack" 0 st1.Store.chunks_new;
  check_bool "but still costs its index entry" true (st1.Store.bytes_written > 0);
  check_int "logical bytes unchanged" st0.Store.bytes_logical
    st1.Store.bytes_logical

let store_errors () =
  let sim = Sim.create () in
  let vfs = Sim.vfs sim in
  let w = make_world () in
  let store = Store.open_ ~vfs w.schema ~path:store_path in
  let root_ids = List.map (fun o -> o.Model.info.Model.id) w.roots in
  let body = full_body w.roots in
  let expect_error name f =
    match f () with
    | _ -> Alcotest.fail (name ^ ": expected Store.Error")
    | exception Store.Error _ -> ()
  in
  expect_error "incremental on empty store" (fun () ->
      Store.append_segment store
        { Segment.kind = Segment.Incremental; seq = 0; roots = root_ids; body });
  ignore
    (Store.append_segment store
       { Segment.kind = Segment.Full; seq = 0; roots = root_ids; body });
  expect_error "sequence gap" (fun () ->
      Store.append_segment store
        { Segment.kind = Segment.Full; seq = 5; roots = root_ids; body });
  expect_error "unknown epoch" (fun () -> Store.restore store ~epoch:3);
  expect_error "gc Keep_last 0" (fun () ->
      Store.gc store ~retain:(Store.Keep_last 0))

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* A CRC-valid index entry whose directory pointer lands on another
   object's record passes open's range checks; restore must refuse it by
   the directory's id (not build a heap missing that object, or blame some
   other object), and check must list it. *)
let store_misdirected_pointer () =
  let forge dir_of =
    let sim = Sim.create () in
    let vfs = Sim.vfs sim in
    let _, store, w =
      drive ~policy:Policy.Incremental_after_base ~rounds:3 vfs
    in
    let latest = Option.get (Store.latest_epoch store) in
    let full = Store.entry_at store 0 in
    Vfs.write_synced vfs Append (Store.index_path store_path) (fun write ->
        write
          (encode_entry
             { full with
               Epoch_index.epoch = latest + 1;
               kind = Segment.Incremental;
               dir =
                 dir_of_triples ~nchunks:(List.length full.chunks)
                   (dir_of (dir_triples full)) }));
    let store = Store.open_ ~vfs w.schema ~path:store_path in
    check_bool "forged entry survives open" true
      (Store.latest_epoch store = Some (latest + 1));
    (store, latest + 1)
  in
  let expect_restore_error name store epoch ~mentions =
    match Store.restore store ~epoch with
    | _ -> Alcotest.fail (name ^ ": restored")
    | exception Restore.Error msg ->
        if not (contains msg mentions) then
          Alcotest.failf "%s: error %S does not mention %S" name msg mentions
  in
  (* Point the first record's entry at its neighbour in the same chunk
     (directory triples are (id, chunk, off)). *)
  let a = ref 0 and b = ref 0 in
  let store, epoch =
    forge (function
      | (ia, ca, _) :: (ib, cb, off_b) :: _ when ca = cb ->
          a := ia;
          b := ib;
          [ (ia, ca, off_b) ]
      | _ -> Alcotest.fail "expected two records in the first chunk")
  in
  let lands = Printf.sprintf "object %d lands on record %d" !a !b in
  expect_restore_error "neighbour record" store epoch ~mentions:lands;
  check_bool "check lists the misdirected entry" true
    (List.exists (fun e -> contains e lands) (Store.check store));
  (* A negative directory id is the same typed error. *)
  let store, epoch =
    forge (function
      | (_, c, off) :: _ -> [ (-5, c, off) ]
      | [] -> Alcotest.fail "empty directory")
  in
  expect_restore_error "negative id" store epoch ~mentions:"-5"

(* A record cut short at its chunk's end, with another fetched chunk right
   after it in the pack and so in the fetch buffer: read on, object 1's
   missing last child id would be object 2's id. The restore must find the
   cut, not decode into the neighbour. *)
let record_past_chunk_end () =
  let schema = Schema.create () in
  let leaf = Schema.declare schema ~name:"Leaf" ~ints:1 ~children:0 () in
  let pair = Schema.declare schema ~name:"Pair" ~ints:2 ~children:2 () in
  let record fields =
    Test_util.stream_bytes (fun d -> List.iter (Out_stream.write_int d) fields)
  in
  let cut = record [ 1; pair.Model.kid; 10; 20; Model.null_id ]
  and next = record [ 2; leaf.Model.kid; 7 ] in
  let body = cut ^ next in
  (* The same bytes as one chunk decode, into the neighbour. *)
  check_bool "whole, the bytes read on into object 2" true
    ((Restore.record_at schema body ~pos:0).Restore.rec_child_ids
    = [| Model.null_id; 2 |]);
  let chunk off len id =
    { Chunk.key = Hash64.sub body ~pos:off ~len; src = body; off; len;
      records = [| id; 0 |] }
  in
  let chunks =
    [ chunk 0 (String.length cut) 1;
      chunk (String.length cut) (String.length next) 2 ]
  in
  let vfs = Sim.vfs (Sim.create ()) in
  let pack = Pack.open_ ~vfs "h.pack" in
  let committed =
    Epochs.commit Epochs.plain vfs ~path:"h.idx" pack
      [ { Epochs.chain = bare_chain "h.idx"; kind = Segment.Full; epoch = 0;
          roots = [ 1 ];
          body = Split chunks } ]
  in
  let restore pack =
    Dir.restore pack schema ~entries:committed.Epochs.entries
      ~epoch:0
  in
  List.iter
    (fun (name, pack) ->
      let keys = Array.of_list (List.map (fun (c : Chunk.t) -> c.key) chunks) in
      let _, starts = Pack.fetch pack keys in
      check_bool (name ^ ": fetched back to back") true
        (starts.(1) = starts.(0) + String.length cut);
      match restore pack with
      | _ -> Alcotest.failf "%s: a record past its chunk's end restored" name
      | exception In_stream.Corrupt _ -> ())
    [ ("appended", pack); ("reopened", reopen_pack ~idx:"h.idx" vfs "h.pack") ]

(* CRC-valid index entries that crash-consistent operation never writes:
   each names the latest entry's successor and breaks one of reopen's
   defensive rules. [pack_bytes] is the pack's length. *)
let rejected_entries ~pack_bytes (last : Epoch_index.entry) =
  (* A successor that dedups every chunk: it locates none. *)
  let next =
    { last with
      Epoch_index.epoch = last.epoch + 1;
      kind = Segment.Incremental;
      at = Epoch_index.located_end last;
      located = Epoch_index.code_located [] }
  in
  [ ( "absent chunk",
      { next with chunks = Chunk.key_of "never stored" :: List.tl last.chunks } );
    ( "chunk located past the pack's end",
      { next with
        at = pack_bytes;
        located = Epoch_index.code_located [ (0, 1, 0) ] } );
    ( "located chunk outside the chunk list",
      { next with
        located =
          Epoch_index.code_located [ (List.length last.chunks, 0, 0) ] } );
    ("epoch gap", { next with epoch = last.epoch + 2 }) ]

(* The latest entry's successor with its first record's offset at its
   chunk's length: reopen cannot see it without decoding the directory,
   so the fold refuses it. *)
let offset_at_chunk_end ~chunk_len (last : Epoch_index.entry) =
  match dir_triples last with
  | [] -> Alcotest.fail "empty directory"
  | (id, c, _) :: _ ->
      { last with
        Epoch_index.epoch = last.epoch + 1;
        kind = Segment.Incremental;
        dir =
          dir_of_triples ~nchunks:(List.length last.chunks)
            [ (id, c, chunk_len (List.nth last.chunks c)) ] }

(* Reopen keeps exactly the entries before a rejected one and cuts the
   index file at that entry's first byte — whatever follows it. An offset
   at its chunk's end survives reopen; the fold refuses it with a typed
   error and check lists it. *)
let store_reopen_rejections () =
  let sim = Sim.create () in
  let vfs = Sim.vfs sim in
  let _, store, w = drive ~policy:(Policy.Full_every 4) ~rounds:3 vfs in
  let idx = Store.index_path store_path in
  let committed = vfs.Vfs.read_file idx in
  let entries = List.map (Store.entry_at store) (Store.epochs store) in
  let last = List.nth entries 2 in
  let pack = reopen_pack ~idx vfs (Store.pack_path store_path) in
  List.iter
    (fun (name, bad) ->
      vfs.Vfs.truncate idx ~len:(String.length committed);
      let after = { bad with Epoch_index.epoch = bad.Epoch_index.epoch + 1 } in
      append_bytes vfs idx (encode_entry bad ^ encode_entry after);
      let store = Store.open_ ~vfs w.schema ~path:store_path in
      check_bool (name ^ ": entries before the bad one kept") true
        (Store.epochs store = [ 0; 1; 2 ]
        && List.map entry_view (List.map (Store.entry_at store) [ 0; 1; 2 ])
           = List.map entry_view entries);
      check_string (name ^ ": index cut at the bad entry") committed
        (vfs.Vfs.read_file idx);
      check_bool (name ^ ": consistent") true (Store.check store = []))
    (rejected_entries ~pack_bytes:(Pack.physical_bytes pack) last);
  vfs.Vfs.truncate idx ~len:(String.length committed);
  append_bytes vfs idx
    (encode_entry
       (offset_at_chunk_end ~chunk_len:(Pack.chunk_len pack) last));
  let store = Store.open_ ~vfs w.schema ~path:store_path in
  check_bool "offset at chunk end: kept by reopen" true
    (Store.epochs store = [ 0; 1; 2; 3 ]);
  (match Store.restore store ~epoch:3 with
  | _ -> Alcotest.fail "offset at chunk end: restored"
  | exception Dir.Error _ -> ());
  ignore (Store.restore store ~epoch:2);
  check_bool "offset at chunk end: check lists it" true
    (List.exists (fun e -> contains e "out of range") (Store.check store))

(* CRC-valid entries whose roots, chunks, directory length or record
   count claims 2^40 items: the decoders (plain and mux) reject each
   count against the bytes left before allocating anything, and reopen
   cuts the index there. *)
let index_hostile_counts () =
  let header s =
    let inp = In_stream.of_string s in
    let magic = In_stream.read_fixed32 inp in
    (magic, In_stream.read_byte inp)
  in
  let sample =
    { Epoch_index.epoch = 3; kind = Segment.Incremental; folded = false;
      size = 0; roots = []; chunks = []; at = 0;
      located = Epoch_index.code_located [];
      dir = Epoch_index.code_dir [] }
  in
  let magic, version = header (encode_entry sample) in
  let mux_magic, _ =
    header (encode_mux_entry { m_tenant = 5; m_entry = sample })
  in
  let huge = 1 lsl 40 in
  (* The counts in wire order: roots, chunks, located chunks and their
     bytes, records and their bytes ([at] is 0). *)
  let forge ?tenant ~magic (nroots, nchunks, nlocated, loclen, records, dirlen)
      =
    framed ~magic ~version (fun d ->
        Option.iter (Out_stream.write_int d) tenant;
        Out_stream.write_int d 3;
        Out_stream.write_byte d 1;
        List.iter (Out_stream.write_int d)
          [ nroots; nchunks; 0; nlocated; loclen; records; dirlen; 0; 0 ])
  in
  let corrupt name decode s =
    match decode s ~pos:0 with
    | _ -> Alcotest.fail (name ^ ": decoded")
    | exception In_stream.Corrupt _ -> ()
  in
  let sim = Sim.create () in
  let vfs = Sim.vfs sim in
  let _, _, w = drive ~policy:(Policy.Full_every 4) ~rounds:3 vfs in
  let idx = Store.index_path store_path in
  let committed = vfs.Vfs.read_file idx in
  List.iter
    (fun (name, counts) ->
      corrupt name (Epoch_index.decode ?prev:None) (forge ~magic counts);
      corrupt (name ^ " (mux)") (Epoch_index.decode_mux ?prev:None)
        (forge ~tenant:5 ~magic:mux_magic counts);
      vfs.Vfs.truncate idx ~len:(String.length committed);
      append_bytes vfs idx (forge ~magic counts);
      let store = Store.open_ ~vfs w.schema ~path:store_path in
      check_bool (name ^ ": earlier entries kept") true
        (Store.epochs store = [ 0; 1; 2 ]);
      check_string (name ^ ": index cut at the forged entry") committed
        (vfs.Vfs.read_file idx))
    [ ("roots", (huge, 0, 0, 0, 0, 0));
      ("chunks", (0, huge, 0, 0, 0, 0));
      ("located bytes", (0, 0, 0, huge, 0, 0));
      ("located chunks", (0, 0, huge, 6, 0, 0));
      ("dir", (0, 0, 0, 0, 0, huge));
      ("records", (0, 0, 0, 0, huge, 2)) ]

(* Loading an index decodes no directory: it allocates a fixed budget per
   entry (the entry, its directory slice, the decoder's frame state) plus
   a list cell per root and chunk key, nothing per directory record. *)
let index_load_allocation () =
  let vfs = Sim.vfs (Sim.create ()) in
  let synth =
    Ickpt_synth.Synth.build
      { Ickpt_synth.Synth.default_config with
        n_structures = 40; pct_modified = 25; modified_lists = 1 }
  in
  let schema = synth.Ickpt_synth.Synth.schema in
  let chain = Chain.create schema in
  let store = Store.open_ ~vfs schema ~path:store_path in
  let policy = Policy.Full_every 8 in
  for r = 0 to 99 do
    if r > 0 then ignore (Ickpt_synth.Synth.mutate_round synth : int);
    let roots = Ickpt_synth.Synth.roots synth in
    let taken =
      match
        Policy.decide policy ~next:(Chain.next chain)
          ~since_full_bytes:(Chain.since_full_bytes chain)
      with
      | Segment.Full -> Chain.take_full chain roots
      | Segment.Incremental -> Chain.take_incremental chain roots
    in
    ignore (Store.append_segment store taken.Chain.segment)
  done;
  let idx = Store.index_path store_path in
  (* The load reads a file already in memory, so only the decoder's words
     are counted, not the simulator's copy of the file. *)
  let data = vfs.Vfs.read_file idx in
  let vfs = { vfs with Vfs.read_file = (fun _ -> data) } in
  (* A minor collection before each reading: the counters account for the
     young generation only as of the last one. *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let entries, _ = Epoch_index.load vfs idx in
  Gc.minor ();
  let words =
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  let cells, records =
    List.fold_left
      (fun (c, r) (e : Epoch_index.entry) ->
        ( c + List.length e.roots + List.length e.chunks,
          r + Epoch_index.dir_records e.dir ))
      (0, 0) entries
  in
  let n = List.length entries in
  check_int "100 epochs" 100 n;
  let per_entry = (words -. (3. *. float_of_int cells)) /. float_of_int n in
  if per_entry >= 48. then
    Alcotest.failf
      "%.0f words for %d entries, %d list cells, %d directory records \
       (%.1f per entry beyond the cells)"
      words n cells records per_entry

(* Ids need not be dense: a restore handles sparse and huge ids, and the
   gaps a registry sweep leaves, identically on every path. *)
let sparse_huge_ids () =
  let schema = Schema.create () in
  let leaf = Schema.declare schema ~name:"Leaf" ~ints:1 ~children:0 () in
  let pair = Schema.declare schema ~name:"Pair" ~ints:1 ~children:2 () in
  let heap = Heap.create schema in
  let l0 = Heap.alloc heap leaf and l1 = Heap.alloc heap leaf in
  let root = Heap.alloc_with_id heap pair ~id:3 ~modified:true in
  let big = Heap.alloc_with_id heap leaf ~id:(1 lsl 40) ~modified:true in
  Barrier.set_child root 0 (Some l1);
  Barrier.set_child root 1 (Some big);
  check_int "l0 unreachable, swept" 1 (Heap.sweep heap ~roots:[ root ]);
  ignore l0;
  let sim = Sim.create () in
  let vfs = Sim.vfs sim in
  let chain = Chain.create schema in
  let store = Store.open_ ~vfs ~records_per_chunk:2 schema ~path:store_path in
  let svc = Service.open_ ~vfs ~records_per_chunk:2 ~path:"svc" () in
  let tenant = Service.open_tenant svc schema ~name:"t" in
  let commit (taken : Chain.taken) =
    ignore (Store.append_segment store taken.segment);
    ignore (Service.append tenant taken.segment : int)
  in
  commit (Chain.take_full chain [ root ]);
  (* A new leaf past 2^40 replaces l1, which the sweep then drops. *)
  let fresh = Heap.alloc heap leaf in
  Barrier.set_int fresh 0 7;
  Barrier.set_child root 0 (Some fresh);
  check_int "l1 swept" 1 (Heap.sweep heap ~roots:[ root ]);
  commit (Chain.take_incremental chain [ root ]);
  Barrier.set_int big 0 42;
  commit (Chain.take_incremental chain [ root ]);
  (* A second full, folded against ids too sparse to index densely. *)
  Barrier.set_int fresh 0 8;
  commit (Chain.take_full chain [ root ]);
  check_bool "the second full folded" true (Store.entry_at store 3).Epoch_index.folded;
  List.iter
    (fun epoch ->
      let reference = reference_body chain ~epoch in
      let _, replayed = replay_restore chain ~epoch in
      let _, stored = Store.restore store ~epoch in
      let _, served = Service.restore tenant ~epoch in
      List.iter
        (fun (name, roots) ->
          check_string (Printf.sprintf "%s epoch %d" name epoch) reference
            (full_body roots))
        [ ("chain", replayed); ("store", stored); ("service", served) ])
    [ 0; 1; 2; 3 ];
  let _, latest = Store.restore store ~epoch:3 in
  check_bool "latest equals the live heap" true (roots_equal [ root ] latest)

let store_resume_at_nonzero_seq () =
  (* A store (and a chain) may resume from a full at seq > 0 — what remains
     after GC dropped earlier epochs. *)
  let sim = Sim.create () in
  let vfs = Sim.vfs sim in
  let w = make_world () in
  let store = Store.open_ ~vfs w.schema ~path:store_path in
  let root_ids = List.map (fun o -> o.Model.info.Model.id) w.roots in
  ignore
    (Store.append_segment store
       { Segment.kind = Segment.Full; seq = 4; roots = root_ids;
         body = full_body w.roots });
  check_bool "epochs start at 4" true (Store.epochs store = [ 4 ]);
  let chain = Chain.create w.schema in
  Chain.append chain (Store.segment_of_epoch store 4);
  check_int "chain adopts the sequence" 5 (Chain.next_seq chain)

(* ------------------------------------------------------------------ *)
(* Diff.                                                              *)

let store_diff_matches_diff_segments () =
  let sim = Sim.create () in
  let chain, store, _ =
    drive ~policy:(Policy.Full_every 3) ~rounds:7 (Sim.vfs sim)
  in
  let segs = Chain.segments chain in
  let suffix_from_full ~epoch =
    let upto = List.filter (fun (s : Segment.t) -> s.seq <= epoch) segs in
    let rec cut acc = function
      | [] -> acc
      | (s : Segment.t) :: older -> (
          match s.kind with
          | Segment.Full -> s :: acc
          | Segment.Incremental -> cut (s :: acc) older)
    in
    cut [] (List.rev upto)
  in
  List.iter
    (fun (a, b) ->
      let expected =
        Diff.segments (Chain.schema chain)
          ~before:(suffix_from_full ~epoch:a)
          ~after:(suffix_from_full ~epoch:b)
      in
      check_bool
        (Printf.sprintf "diff %d %d matches Diff.segments" a b)
        true
        (Store.diff store a b = expected))
    [ (0, 1); (0, 6); (2, 5); (3, 3); (5, 2); (6, 0) ]

(* ------------------------------------------------------------------ *)
(* GC and refcounts.                                                  *)

let store_gc_retention () =
  let sim = Sim.create () in
  let vfs = Sim.vfs sim in
  let chain, store, _ = drive ~policy:(Policy.Full_every 3) ~rounds:10 vfs in
  ignore chain;
  (* Fulls at 0,3,6,9. Keep_last 4 floors at 6 (widened from 7). *)
  let g = Store.gc store ~retain:(Store.Keep_last 4) in
  check_int "epochs 0..5 dropped" 6 g.Store.dropped_epochs;
  check_bool "chunks reclaimed" true (g.Store.dropped_chunks > 0);
  check_bool "bytes reclaimed" true (g.Store.reclaimed_bytes > 0);
  check_bool "epochs 6..9 kept" true
    (Store.epochs store = [ 6; 7; 8; 9 ]);
  check_bool "kept epochs still restore" true
    (List.for_all
       (fun e ->
         let _, roots = Store.restore store ~epoch:e in
         roots <> [])
       (Store.epochs store));
  check_bool "still consistent" true (Store.check store = []);
  check_bool "no dead chunks survive" true
    (List.for_all (fun (_, n) -> n > 0) (Store.refcounts store));
  (* Idempotent: nothing left to collect. *)
  let g2 = Store.gc store ~retain:(Store.Keep_last 4) in
  check_int "second gc is a no-op" 0 g2.Store.dropped_epochs;
  (* Keep_all never drops epochs. *)
  let g3 = Store.gc store ~retain:Store.Keep_all in
  check_int "Keep_all drops nothing" 0 g3.Store.dropped_epochs;
  (* The store reopens to the post-GC state and accepts the next epoch. *)
  let w2 = make_world () in
  let store2 = Store.open_ ~vfs w2.schema ~path:store_path in
  check_bool "reopen sees the GCed epochs" true
    (Store.epochs store2 = [ 6; 7; 8; 9 ]);
  check_bool "reopen is consistent" true (Store.check store2 = []);
  let _, roots = Store.restore store2 ~epoch:9 in
  check_bool "restore after reopen" true (roots <> [])

(* ------------------------------------------------------------------ *)
(* The store as checkpoint manager, and the stale-temp sweep.         *)

let checkpoint_lifecycle () =
  let sim = Sim.create () in
  let vfs = Sim.vfs sim in
  let w = make_world () in
  let store =
    Store.open_ ~vfs ~records_per_chunk:4 ~policy:(Policy.Full_every 3)
      w.schema ~path:store_path
  in
  ignore (Store.checkpoint store w.roots);
  for r = 1 to 7 do
    w.mutate r;
    ignore (Store.checkpoint store w.roots)
  done;
  check_bool "eight epochs, kinds per policy" true
    (List.map (Store.kind_of_epoch store) (Store.epochs store)
    = Segment.[ Full; Incremental; Incremental; Full; Incremental;
                Incremental; Full; Incremental ]);
  let _, store_roots = Store.restore store ~epoch:7 in
  check_bool "restore = live state" true (roots_equal w.roots store_roots);
  (* GC from the newest full; numbering continues. *)
  ignore (Store.gc store ~retain:(Store.Keep_last 1));
  check_bool "gc keeps from the newest full" true
    (Store.epochs store = [ 6; 7 ]);
  w.mutate 99;
  check_int "numbering continues across gc" 8 (Store.checkpoint store w.roots);
  check_bool "incremental after gc" true
    (Store.kind_of_epoch store 8 = Segment.Incremental);
  (* A second open resumes the chain. *)
  let w2 = make_world () in
  let store2 =
    Store.open_ ~vfs ~records_per_chunk:4 ~policy:(Policy.Full_every 3)
      w2.schema ~path:store_path
  in
  let _, roots = Store.restore store2 ~epoch:8 in
  List.iter (fun o -> Barrier.set_int o 0 424_242) roots;
  check_int "resumed store takes epoch 9" 9 (Store.checkpoint store2 roots);
  check_bool "epoch 9 is full per policy" true
    (Store.kind_of_epoch store2 9 = Segment.Full);
  let _, roots9 = Store.restore store2 ~epoch:9 in
  check_bool "epoch 9 restores the resumed state" true (roots_equal roots roots9)

(* The store twin of the service's resume equivalence: the counters a
   reopen derives from committed entries (the epoch expected, incremental
   bytes since the newest full) pick the same kinds as the ones a store
   never interrupted advanced in memory, so the files match byte for
   byte. *)
let store_resume_equivalence () =
  let run policy ~resume =
    let vfs = Sim.vfs (Sim.create ()) in
    let w = make_world () in
    let open_ () =
      Store.open_ ~vfs ~records_per_chunk:4 ~policy w.schema ~path:store_path
    in
    let store = ref (open_ ()) in
    for r = 0 to 11 do
      if r > 0 then w.mutate r;
      if resume then store := open_ ();
      check_int "epoch" r (Store.checkpoint !store w.roots)
    done;
    ( List.map
        (fun e -> (e, Store.kind_of_epoch !store e))
        (Store.epochs !store),
      List.map (Vfs.contents vfs)
        [ Store.pack_path store_path; Store.index_path store_path ] )
  in
  List.iter
    (fun policy ->
      let name = Format.asprintf "%a" Policy.pp policy in
      let kinds, files = run policy ~resume:false in
      let kinds', files' = run policy ~resume:true in
      check_bool (name ^ ": same kinds at the same epochs") true
        (kinds = kinds');
      check_bool (name ^ ": files byte-identical") true (files = files');
      check_bool (name ^ ": a full after the base") true
        (List.exists (fun (e, k) -> e > 0 && k = Segment.Full) kinds);
      check_bool (name ^ ": incrementals") true
        (List.exists (fun (_, k) -> k = Segment.Incremental) kinds))
    [ Policy.Full_every 3; Policy.Chain_bytes_limit 40 ]

(* Regression: a staged temp left by a crash mid-GC must be swept on
   reopen. *)
let stale_temp_sweep () =
  let temps =
    [ Vfs.temp_of (Store.pack_path store_path);
      Vfs.temp_of (Store.index_path store_path) ]
  in
  (* Seeded stale temps are swept by open_. *)
  let vfs = Sim.vfs (Sim.seeded (List.map (fun t -> (t, "junk")) temps)) in
  ignore (Store.open_ ~vfs (make_world ()).schema ~path:store_path);
  List.iter
    (fun t -> check_bool ("Store.open_ sweeps " ^ t) false (vfs.Vfs.exists t))
    temps;
  (* And the crash that actually produces one: die during a GC, between
     staging the rewritten files and renaming them. *)
  let three_epochs vfs =
    let w = make_world () in
    let store =
      Store.open_ ~vfs ~policy:(Policy.Full_every 2) w.schema ~path:store_path
    in
    ignore (Store.checkpoint store w.roots);
    w.mutate 1;
    ignore (Store.checkpoint store w.roots);
    w.mutate 2;
    ignore (Store.checkpoint store w.roots);
    store
  in
  let gc store = ignore (Store.gc store ~retain:(Store.Keep_last 1)) in
  let before, after =
    let ref_sim = Sim.create () in
    let store = three_epochs (Sim.vfs ref_sim) in
    let before = Sim.ops ref_sim in
    gc store;
    (before, Sim.ops ref_sim)
  in
  let found = ref false in
  for op = before to after - 1 do
    let sim =
      Sim.create ~fault:(Sim.Crash_at { op; byte = 1; mode = Sim.Torn }) ()
    in
    (try gc (three_epochs (Sim.vfs sim)) with Sim.Crashed -> ());
    let vfs' = Sim.vfs (Sim.restart sim) in
    if List.exists vfs'.Vfs.exists temps then begin
      found := true;
      let w4 = make_world () in
      let store = Store.open_ ~vfs:vfs' w4.schema ~path:store_path in
      check_bool "reopen after a GC crash sweeps the temps" false
        (List.exists vfs'.Vfs.exists temps);
      ignore (Store.checkpoint store w4.roots);
      check_bool "consistent after the sweep" true (Store.check store = [])
    end
  done;
  check_bool "some crash point left a stale temp" true !found

(* ------------------------------------------------------------------ *)
(* Index v3 and chunks CRC-checked on first read.                     *)

(* The offset of [sub] in [s]. *)
let find_sub s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then Alcotest.fail "substring not found"
    else if String.sub s i n = sub then i
    else go (i + 1)
  in
  go 0

let flip_byte (vfs : Vfs.t) path i =
  let b = Bytes.of_string (vfs.Vfs.read_file path) in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
  let w = vfs.Vfs.open_trunc path in
  w.Vfs.write (Bytes.to_string b);
  w.Vfs.sync ();
  w.Vfs.close ()

(* An entry as an older format wrote it. Version 1: a flat (id, chunk,
   off) triple per record, no pack length. Version 2: a record count, the
   pack's length after the entry's batch and the coded directory (coded
   as version 3 codes it), chunks located by pack frames. [tenant] makes
   it a mux one. *)
let old_entry ~version ?tenant (e : Epoch_index.entry) =
  let magic =
    In_stream.read_fixed32
      (In_stream.of_string
         (match tenant with
         | None -> encode_entry e
         | Some m_tenant -> encode_mux_entry { m_tenant; m_entry = e }))
  in
  let ints d = List.iter (Out_stream.write_int d) in
  let triples = dir_triples e in
  framed ~magic ~version (fun d ->
      Option.iter (Out_stream.write_int d) tenant;
      Out_stream.write_int d e.epoch;
      Out_stream.write_byte d (if e.kind = Segment.Full then 0 else 1);
      ints d (List.length e.roots :: e.roots);
      ints d (List.length e.chunks :: e.chunks);
      if version = 1 then begin
        Out_stream.write_int d (List.length triples);
        List.iter (fun (id, c, off) -> ints d [ id; c; off ]) triples
      end
      else begin
        let dir = Out_stream.create () and id = ref 0 in
        List.iteri
          (fun c _ ->
            let recs = List.filter (fun (_, c', _) -> c' = c) triples in
            Out_stream.write_int dir (List.length recs);
            let off = ref 0 in
            List.iter
              (fun (i, _, o) ->
                ints dir [ i - !id; o - !off ];
                id := i;
                off := o)
              recs)
          e.chunks;
        let dir = Out_stream.contents dir in
        if version = 2 then begin
          ints d [ List.length triples; Epoch_index.located_end e ];
          Out_stream.write_string d dir
        end
        else begin
          (* Version 3: the located chunks and the directory as slices,
             and no body size. *)
          let loc = Out_stream.create () and prev = ref (-1) in
          let located = located_list e in
          List.iteri
            (fun i k ->
              match List.find_opt (fun (k', _, _, _) -> k' = k) located with
              | Some (_, _, len, crc) when i > !prev ->
                  ints loc [ i - !prev; len ];
                  Out_stream.write_fixed32 loc crc;
                  prev := i
              | _ -> ())
            e.chunks;
          ints d [ e.at; List.length located ];
          Out_stream.write_string d (Out_stream.contents loc);
          Out_stream.write_int d (List.length triples);
          Out_stream.write_string d dir
        end
      end)

(* A store whose index is in an older format version is refused with a
   typed error naming the version, and neither file is touched. *)
let index_version_rejected ~version () =
  let vfs = Sim.vfs (Sim.create ()) in
  let _, store, w = drive ~policy:(Policy.Full_every 4) ~rounds:3 vfs in
  let idx = Store.index_path store_path and pack = Store.pack_path store_path in
  let old =
    String.concat ""
      (List.map
         (fun e -> old_entry ~version (Store.entry_at store e))
         (Store.epochs store))
  in
  let w' = vfs.Vfs.open_trunc idx in
  w'.Vfs.write old;
  w'.Vfs.sync ();
  w'.Vfs.close ();
  (* A torn tail after the old entries, which a reopen would cut. *)
  append_bytes vfs pack "ICPK\001torn";
  let pack_bytes = vfs.Vfs.read_file pack in
  let named = Printf.sprintf "version %d" version in
  (match Store.open_ ~vfs w.schema ~path:store_path with
  | _ -> Alcotest.failf "opened a version-%d index" version
  | exception Store.Error msg ->
      if not (contains msg named) then
        Alcotest.failf "error %S does not name %s" msg named);
  check_string "index byte-identical" old (vfs.Vfs.read_file idx);
  check_string "pack byte-identical" pack_bytes (vfs.Vfs.read_file pack)

(* The bytes a folded directory codes to, written one varint at a time:
   the run count, then per run its chunk, its record count and per record
   its id less the previous record's (0 before the first) and its offset
   less the previous one in the run (0 before the run's first). *)
let reference_runs runs =
  Test_util.stream_bytes (fun d ->
      Out_stream.write_int d (List.length runs);
      let prev = ref 0 in
      List.iter
        (fun (chunk, records) ->
          Out_stream.write_int d chunk;
          Out_stream.write_int d (List.length records);
          let o = ref 0 in
          List.iter
            (fun (id, off) ->
              Out_stream.write_int d (id - !prev);
              Out_stream.write_int d (off - !o);
              prev := id;
              o := off)
            records)
        runs)

(* A folded directory roundtrips too: runs of up to 300 records naming
   any of the entry's chunks, again and out of order, through code_runs
   and through an encoded entry. Its ids and offsets step by deltas on
   both sides of each width a zigzag varint changes at (1 to 2 bytes at
   -65/-64 and 63/64, 2 to 3 at -8193/-8192 and 8191/8192, 3 to 4 at
   2^20), ids down as well as up. The entry's frame ends with the
   directory, then the CRC: those bytes are the reference coder's. *)
let folded_dir_roundtrip =
  let open QCheck2.Gen in
  let edges =
    List.concat_map
      (fun b -> [ b - 1; b; b + 1; -b - 1; -b; -b + 1 ])
      [ 64; 8192; 1 lsl 20 ]
  in
  let delta = oneof [ oneofl edges; int_range (-3) 40 ] in
  let run = pair (int_range 0 5) (list_size (int_range 1 300) (pair delta delta)) in
  QCheck2.Test.make ~count:300 ~name:"folded directory roundtrip"
    (list_size (int_range 0 8) run)
    (fun steps ->
      (* Ids run on across runs; offsets restart at 0 per run, and a step
         down past 0 is taken up instead. *)
      let id = ref 0 in
      let runs =
        List.map
          (fun (chunk, deltas) ->
            let off = ref 0 in
            ( chunk,
              List.map
                (fun (di, d) ->
                  id := !id + di;
                  off := if !off + d >= 0 then !off + d else !off - d;
                  (!id, !off))
                deltas ))
          steps
      in
      let records = List.concat_map snd runs in
      let e =
        { Epoch_index.epoch = 2; kind = Segment.Full; folded = true;
          size = 0; roots = [ 1 ]; chunks = List.init 6 (fun i -> 100 + i);
          at = 0; located = Epoch_index.code_located [];
          dir =
            Epoch_index.code_runs
              ~chunks:(Array.of_list (List.map fst runs))
              ~counts:(Array.of_list (List.map (fun (_, l) -> List.length l) runs))
              ~ids:(Array.of_list (List.map fst records))
              ~offs:(Array.of_list (List.map snd records)) }
      in
      let expected =
        List.concat_map (fun (c, l) -> List.map (fun (i, o) -> (i, c, o)) l) runs
      in
      let frame = encode_entry e in
      let dir =
        let r = reference_runs runs in
        Test_util.stream_bytes (fun d ->
            Out_stream.write_int d (List.length records);
            Out_stream.write_substring d r ~pos:0 ~len:(String.length r))
      in
      let decoded, _ = Epoch_index.decode frame ~pos:0 in
      String.length frame >= String.length dir + 4
      && String.sub frame (String.length frame - 4 - String.length dir)
           (String.length dir)
         = dir
      && dir_triples e = expected
      && decoded.folded
      && entry_view decoded = entry_view e)

(* The coded directory roundtrips: ids jumping either way (negative
   deltas), chunks with no record, sparse and huge ids, offsets in any
   order — through code_dir and through an encoded entry. *)
let coded_dir_roundtrip =
  let open QCheck2.Gen in
  let id =
    oneof
      [ int_range (-3) 200; int_range 0 (1 lsl 40); return max_int;
        return min_int ]
  in
  let chunk = list_size (int_range 0 5) (pair id (int_range 0 5000)) in
  QCheck2.Test.make ~count:300 ~name:"coded directory roundtrip"
    (pair (list_size (int_range 0 6) chunk) (int_range 0 1_000_000))
    (fun (chunks, at) ->
      (* Every other chunk located, with made-up lengths and CRCs. *)
      let located =
        List.filter_map
          (fun i -> if i mod 2 = 0 then Some (i, 7 * i, 0xfffffff0 + i) else None)
          (List.init (List.length chunks) Fun.id)
      in
      let e =
        { Epoch_index.epoch = 1; kind = Segment.Incremental; folded = false;
          size = 0; roots = [ 1 ]; chunks = List.mapi (fun i _ -> i) chunks;
          at;
          located = Epoch_index.code_located located;
          dir = Epoch_index.code_dir (List.map flat chunks) }
      in
      let expected =
        List.concat
          (List.mapi (fun c recs -> List.map (fun (i, o) -> (i, c, o)) recs)
             chunks)
      in
      let _, expected_located =
        List.fold_left_map
          (fun pos (i, len, crc) -> (pos + len, (i, pos, len, crc)))
          at located
      in
      let decoded, _ = Epoch_index.decode (encode_entry e) ~pos:0 in
      Epoch_index.dir_records e.dir = List.length expected
      && dir_triples e = expected
      && located_list e = expected_located
      && entry_view decoded = entry_view e)

(* A byte flipped inside a committed chunk mid-pack does not cut the pack
   at reopen: the chunk is CRC-checked when first read. Epochs whose
   restore reads that chunk raise a typed error, the others restore, and
   check lists the chunk. *)
let committed_frame_flip () =
  let vfs = Sim.vfs (Sim.create ()) in
  let chain, store, w = drive ~policy:(Policy.Full_every 4) ~rounds:7 vfs in
  let latest = Option.get (Store.latest_epoch store) in
  let first = Store.entry_at store 0 and last = Store.entry_at store latest in
  let key =
    List.find (fun k -> not (List.mem k first.chunks)) last.Epoch_index.chunks
  in
  let pack = Store.pack_path store_path in
  let body = Pack.read (reopen_pack ~idx:(Store.index_path store_path) vfs pack) key in
  let size = String.length (vfs.Vfs.read_file pack) in
  flip_byte vfs pack (find_sub (vfs.Vfs.read_file pack) body + (String.length body / 2));
  let store = Store.open_ ~vfs w.schema ~path:store_path in
  check_int "pack not cut" size (String.length (vfs.Vfs.read_file pack));
  check_bool "every epoch kept" true (Store.latest_epoch store = Some latest);
  let entries = List.map (Store.entry_at store) (Store.epochs store) in
  let failed = ref 0 and restored = ref 0 in
  List.iter
    (fun epoch ->
      let reads = ref false in
      Dir.iter (Dir.fold ~entries ~epoch) (fun _ (k, _) ->
          if k = key then reads := true);
      match Store.restore store ~epoch with
      | _, roots ->
          if !reads then Alcotest.failf "epoch %d read the flipped chunk" epoch;
          incr restored;
          check_string
            (Printf.sprintf "epoch %d restores" epoch)
            (reference_body chain ~epoch) (full_body roots)
      | exception In_stream.Corrupt _ ->
          if not !reads then Alcotest.failf "epoch %d failed" epoch;
          incr failed)
    (Store.epochs store);
  check_bool "some epochs fail, some restore" true (!failed > 0 && !restored > 0);
  check_bool "check lists the chunk" true
    (List.exists
       (fun e -> contains e (Hash64.to_hex key) && contains e "crc")
       (Store.check store))

(* gc re-locates every kept chunk in the rewritten pack, so the kept
   entries end exactly where it does, and a reopen after it still cuts
   whatever an append left past that length. Stats count the files' bytes
   throughout. *)
let gc_then_torn_tail () =
  let vfs = Sim.vfs (Sim.create ()) in
  let _, store, w = drive ~policy:(Policy.Full_every 3) ~rounds:8 vfs in
  let files_bytes name store =
    check_int (name ^ ": stats count the files' bytes")
      (List.fold_left
         (fun n p -> n + String.length (vfs.Vfs.read_file p))
         0
         [ Store.pack_path store_path; Store.index_path store_path ])
      (Store.stats store).Store.physical_bytes
  in
  files_bytes "appended" store;
  ignore (Store.gc store ~retain:(Store.Keep_last 2) : Store.gc_stats);
  files_bytes "gc" store;
  let pack = Store.pack_path store_path in
  let gced = vfs.Vfs.read_file pack in
  check_int "the kept entries end where the rewritten pack does"
    (String.length gced)
    (List.fold_left
       (fun n e -> max n (Epoch_index.located_end (Store.entry_at store e)))
       0 (Store.epochs store));
  (* A body with its last byte garbled, as a crash mid-append leaves it. *)
  append_bytes vfs pack "tail";
  flip_byte vfs pack (String.length gced + 3);
  let store = Store.open_ ~vfs w.schema ~path:store_path in
  check_string "garbled tail cut" gced (vfs.Vfs.read_file pack);
  check_int "cut reported" 4 (Store.stats store).Store.pack_cut_bytes;
  files_bytes "reopened" store;
  check_bool "consistent" true (Store.check store = [])

(* Random batches read back positionally. The first body ends [straddle]
   bytes short of the read buffer's end; one body is longer than the
   buffer. Any key subset reads back through [read_many] as through
   per-key [read] and as appended: on the pack that appended it and
   reopened (every chunk then CRC-checked on read). A byte flipped in one
   chunk of a coalesced run fails that read naming that chunk, and no
   other; a tear at any byte of the last batch cuts back to the batch
   before. *)
let pack_read_many_prop =
  let gen =
    QCheck2.Gen.(
      let* straddle = int_range 1 30 in
      let* big = int_range 1 5000 in
      let* batches =
        list_size (int_range 1 5) (list_size (int_range 1 6) (int_bound 3000))
      in
      let* last = int_range 1 60 in
      let* mask = list_size (return 64) bool in
      let* victim = nat in
      let* flip = nat in
      return (straddle, big, batches, last, mask, victim, flip))
  in
  QCheck2.Test.make ~count:15 ~name:"read_many over coalesced runs"
    gen (fun (straddle, big, batches, last, mask, victim, flip) ->
      let file = "q.pack" in
      let tagged i d = Printf.sprintf "%d:" i ^ d in
      let bodies =
        [ tagged 0 (String.make (Pack.read_buffer_size - straddle - 2) 'p') ]
        :: [ tagged 1 (String.make (Pack.read_buffer_size + big) 'b') ]
        :: List.mapi
             (fun b sizes ->
               List.mapi
                 (fun i n ->
                   tagged ((100 * (b + 1)) + i)
                     (String.init n (fun j ->
                          Char.chr (((j * 7) + b + i) land 0xff))))
                 sizes)
             batches
      in
      let batches = List.map (List.map (fun d -> (Chunk.key_of d, d))) bodies in
      let chunks = List.concat batches in
      let vfs = Sim.vfs (Sim.create ()) in
      let p = Pack.open_ ~vfs file in
      List.iteri
        (fun epoch b ->
          ignore (commit_chunks vfs p ~epoch b : _ Epochs.committed))
        batches;
      let before_last = Pack.physical_bytes p in
      let index_before_last = vfs.Vfs.read_file "p.idx" in
      let last_chunk = tagged 999 (String.make last 'z') in
      let last_key = Chunk.key_of last_chunk in
      ignore
        (commit_chunks vfs p ~epoch:(List.length batches)
           [ (last_key, last_chunk) ]
          : _ Epochs.committed);
      let chunks = chunks @ [ (last_key, last_chunk) ] in
      let whole = vfs.Vfs.read_file file in
      let index = vfs.Vfs.read_file "p.idx" in
      let pick = List.filteri (fun i _ -> List.nth mask (i mod 64)) chunks in
      let agrees name p =
        let keys = Array.of_list (List.map fst pick) in
        let many = Pack.read_many p keys in
        List.iteri
          (fun i (k, d) ->
            if many.(i) <> d || Pack.read p k <> d then
              QCheck2.Test.fail_reportf "%s: chunk %d read back wrong" name i)
          pick
      in
      agrees "appended" p;
      agrees "reopened" (reopen_pack vfs file);
      (* One body byte of one chunk; bodies lie back to back in append
         order. *)
      (match pick with
      | [] -> ()
      | _ ->
          let vk, vd = List.nth pick (victim mod List.length pick) in
          let rec body_at pos = function
            | [] -> assert false
            | (k, d) :: rest ->
                if k = vk then pos else body_at (pos + String.length d) rest
          in
          let at = body_at 0 chunks + (flip mod String.length vd) in
          let b = Bytes.of_string whole in
          Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x41));
          let vfs =
            Sim.vfs (Sim.seeded [ (file, Bytes.to_string b); ("p.idx", index) ])
          in
          let p = reopen_pack vfs file in
          (match Pack.read_many p (Array.of_list (List.map fst pick)) with
          | _ -> QCheck2.Test.fail_report "flipped chunk read back"
          | exception In_stream.Corrupt msg ->
              if not (contains msg (Hash64.to_hex vk)) then
                QCheck2.Test.fail_reportf "corruption %S names another chunk"
                  msg);
          List.iter
            (fun (k, d) ->
              if k <> vk && Pack.read p k <> d then
                QCheck2.Test.fail_report "an intact chunk read back wrong")
            chunks;
          let others = List.filter (fun (k, _) -> k <> vk) pick in
          if
            Array.to_list
              (Pack.read_many p (Array.of_list (List.map fst others)))
            <> List.map snd others
          then QCheck2.Test.fail_report "the run without the flipped chunk");
      (* A tear anywhere in the last batch, its entry never written. *)
      for len = before_last to String.length whole - 1 do
        let vfs =
          Sim.vfs
            (Sim.seeded
               [ (file, String.sub whole 0 len); ("p.idx", index_before_last) ])
        in
        let p = reopen_pack vfs file in
        if
          Pack.length p <> List.length chunks - 1
          || Pack.physical_bytes p <> before_last
          || Pack.cut_bytes p <> len - before_last
          || Pack.mem p last_key
          || String.length (vfs.Vfs.read_file file) <> before_last
        then QCheck2.Test.fail_reportf "tear at %d not cut back" len
      done;
      true)

(* Reopening a pack of several MB allocates the key table, not the pack:
   the major words it allocates stay far below the file's size in
   words. *)
let pack_open_allocation () =
  let dir = Filename.temp_dir "ickpt_pack" "" in
  let file = Filename.concat dir "a.pack" and idx = Filename.concat dir "a.idx" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ file; idx ];
      Sys.rmdir dir)
    (fun () ->
      let p = Pack.open_ file in
      for b = 0 to 63 do
        ignore
          (commit_chunks ~idx Vfs.real p ~epoch:b
             (List.init 64 (fun i ->
                  let d =
                    Printf.sprintf "%d.%d:" b i
                    ^ String.init 1024 (fun j -> Char.chr (((b * i) + j) land 0xff))
                  in
                  (Chunk.key_of d, d)))
            : _ Epochs.committed)
      done;
      let size = (Unix.stat file).Unix.st_size in
      check_bool "several MB" true (size > 4_000_000);
      (* A full major first: the counter would otherwise also take in
         major-heap words the appends above left unaccounted. *)
      Gc.full_major ();
      let before = (Gc.quick_stat ()).Gc.major_words in
      let p = reopen_pack ~idx Vfs.real file in
      Gc.minor ();
      let words = (Gc.quick_stat ()).Gc.major_words -. before in
      check_int "every chunk" 4096 (Pack.length p);
      let pack_words = float_of_int (size / (Sys.word_size / 8)) in
      if words > pack_words /. 8. then
        Alcotest.failf "open allocated %.0f major words for a %.0f-word pack"
          words pack_words)

(* Reloading a table of 4,096 located chunks allocates each of its arrays
   once, sized from the entries' counts: no doubling, no rehash. Growing
   from 256 slots allocates about 11.6 words per chunk (47,707 words);
   sized once, about 8.5 (four int arrays and a byte per slot, the table
   twice the slots rounded up to a power of two). *)
let pack_reload_allocation () =
  let vfs = Sim.vfs (Sim.create ()) in
  let p = Pack.open_ ~vfs "a.pack" in
  let entries =
    List.init 64 (fun b ->
        List.hd
          (commit_chunks vfs p ~epoch:b
             (List.init 64 (fun i ->
                  let d = Printf.sprintf "%d.%d" b i in
                  (Chunk.key_of d, d))))
            .Epochs.entries)
  in
  let p = Pack.open_ ~vfs "a.pack" in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  let ends = Pack.reload p entries in
  Gc.minor ();
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  check_int "every chunk" 4096 (Pack.length p);
  check_bool "every entry's located end" true
    (ends = List.map (fun e -> Some (Epoch_index.located_end e)) entries);
  if words > 9. *. 4096. then
    Alcotest.failf "reload allocated %.0f major words for 4096 chunks" words

(* Chunks that are slices of larger strings, at any offset, resolve and
   append by their bytes alone: the pack holds just the slices' bytes, a
   stored chunk's bytes sliced from another string are a duplicate, a
   forged key over other bytes climbs the salt ladder (the salted key
   hashes the slice in place), and a later slice of a batch dedups
   against an earlier one. *)
let pack_resolve_slices () =
  let vfs = Sim.vfs (Sim.create ()) in
  let p = Pack.open_ ~vfs "r.pack" in
  let slice src off len =
    { Chunk.key = Hash64.sub src ~pos:off ~len; src; off; len; records = [||] }
  in
  let commit epoch chunks =
    Epochs.commit Epochs.plain vfs ~path:"r.idx" p
      [ { Epochs.chain = bare_chain "r.idx"; kind = Segment.Full; epoch; roots = [];
          body = Split chunks } ]
  in
  let body = "..AAAA..BBBBB.." in
  let a = slice body 2 4 and b = slice body 8 5 in
  ignore (commit 0 [ a; b ] : _ Epochs.committed);
  check_string "the pack holds the slices' bytes" "AAAABBBBB"
    (vfs.Vfs.read_file "r.pack");
  check_bool "the same bytes elsewhere are a duplicate" true
    (Pack.resolve p [ slice "zzzAAAA" 3 4; slice "BBBBB" 0 5 ]
    = [ Pack.Dup a.key; Pack.Dup b.key ]);
  let forged = { (slice "xxCCCCxx" 2 4) with key = a.key } in
  let salted = Chunk.salted_key (Chunk.of_string "CCCC") ~attempt:1 in
  check_int "the salted key hashes the slice in place" salted
    (Chunk.salted_key forged ~attempt:1);
  check_bool "a forged key climbs the ladder" true
    (Pack.resolve p [ forged ] = [ Pack.Fresh { key = salted; attempt = 1 } ]);
  let d = "DDDDxDDDD" in
  let d1 = slice d 0 4 and d2 = slice d 5 4 in
  check_bool "a batch dedups its own slices" true
    (Pack.resolve p [ d1; d2 ]
    = [ Pack.Fresh { key = d1.key; attempt = 0 }; Pack.Dup d1.key ]);
  let c = commit 1 [ forged; d1; d2 ] in
  check_int "one collision" 1 (List.length c.Epochs.collisions);
  check_string "the salted chunk reads back" "CCCC" (Pack.read p salted);
  check_string "the pack grew by the fresh slices" "AAAABBBBBCCCCDDDD"
    (vfs.Vfs.read_file "r.pack")

(* [f ()] and the words it allocated: minor words from
   [Gc.minor_words], exact at any point; words allocated on the major
   heap directly are its words less those promoted, which the counters
   update together. *)
let allocated f =
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  let x = f () in
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  (x, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))


(* A restore allocates the heap it builds and little else: decoded where
   its chunks lie in the pack's fetch buffer, each object built once with
   its children. Restoring the fifteenth epoch (seven incrementals past a
   full) of the 6,500-object synth heap builds 147,250 heap words and
   allocates about 11 more per object: the fold's slots, whose table
   becomes the heap's registry, and the object array. Copying each chunk
   out of the read buffer, a child-slot array and a second pass that
   links every child took about 22 per object. *)
let restore_allocation () =
  let synth =
    Ickpt_synth.Synth.build
      { Ickpt_synth.Synth.default_config with Ickpt_synth.Synth.n_structures = 250 }
  in
  let roots = Ickpt_synth.Synth.roots synth in
  let vfs = Sim.vfs (Sim.create ()) in
  let store =
    Store.open_ ~vfs ~policy:(Policy.Full_every 8)
      synth.Ickpt_synth.Synth.schema ~path:store_path
  in
  for r = 0 to 15 do
    if r > 0 then ignore (Ickpt_synth.Synth.mutate_round synth : int);
    ignore (Store.checkpoint store roots : int)
  done;
  (* The first restore grows the fetch buffer. *)
  ignore (Store.restore store ~epoch:15);
  let (heap, restored), words =
    allocated (fun () -> Store.restore store ~epoch:15)
  in
  check_bool "restores as taken" true (roots_equal roots restored);
  let block n = if n = 0 then 0 else n + 1 in
  let heap_words = ref 0 in
  Heap.iter heap (fun o ->
      let some = Array.fold_left (fun n c -> if c = None then n else n + 2) 0 in
      heap_words :=
        !heap_words + 3 + 5
        + block (Array.length o.Model.ints)
        + block (Array.length o.Model.children)
        + some o.Model.children);
  let n = Heap.count heap in
  check_int "objects" 6500 n;
  let extra = (words -. float_of_int !heap_words) /. float_of_int n in
  if extra > 14. then
    Alcotest.failf
      "a restore allocated %.0f words: %d of heap, %.1f more per object" words
      !heap_words extra

(* A take into a kept stream regrows nothing. Once a first full take has
   grown the stream (and the domain's visited set), a second full take of
   the 6,500-object synth heap through {!Epochs.take} allocates about its
   body, the copy the segment keeps (20,502 words for a 157,691-byte
   body); and a second full {!Store.checkpoint}, every record of which
   is unchanged, within six bodies (83,444 words: the body framed and
   compared in one pass against the first full's image, the folded
   entry, the image the next fold reads and the simulator's index file;
   93,309 when the fold read the first full's records from the pack,
   into its read buffer, grown here; the whole full this was before
   folded fulls, every chunk a duplicate, 94,691; with a fresh stream
   and visited set per take, and the split copying each chunk,
   274,801). *)
let take_stream_allocation () =
  let synth =
    Ickpt_synth.Synth.build
      { Ickpt_synth.Synth.default_config with Ickpt_synth.Synth.n_structures = 250 }
  in
  let roots = Ickpt_synth.Synth.roots synth in
  let chain = bare_chain "take.idx" in
  let take () = Epochs.take Policy.Always_full chain Chain.generic roots in
  ignore (take () : Segment.t);
  let seg, words = allocated take in
  let body_words = float_of_int ((String.length seg.Segment.body / 8) + 1) in
  check_bool "a full body" true (String.length seg.body > 150_000);
  if words > body_words +. 1024. then
    Alcotest.failf "a full take into a kept stream allocated %.0f words (body: %.0f)"
      words body_words;
  let vfs = Sim.vfs (Sim.create ()) in
  let store =
    Store.open_ ~vfs ~policy:Policy.Always_full
      synth.Ickpt_synth.Synth.schema ~path:store_path
  in
  ignore (Store.checkpoint store roots : int);
  let _, words = allocated (fun () -> Store.checkpoint store roots) in
  if words > 6. *. body_words then
    Alcotest.failf "a second full checkpoint allocated %.0f words (body: %.0f)"
      words body_words

(* A folded full's commit: {!Store.append_segment} (so {!Epochs.item}
   and the commit) of the ninth epoch of the 6,500-object synth heap, a
   full after seven incrementals, folded against the store's image,
   allocates 91,367 words: the framing arrays and the view of the image,
   the fold's moved records and directory offsets, the coded directory,
   the entry and the simulator's copy of the index file. The fold writes
   the places over the framing's array and the entry takes them; with a
   places array of the fold's own and another the entry built, the same
   sequence allocated 98,478. *)
let folded_full_allocation () =
  let synth =
    Ickpt_synth.Synth.build
      { Ickpt_synth.Synth.default_config with
        Ickpt_synth.Synth.n_structures = 250;
        pct_modified = 25;
        modified_lists = 1 }
  in
  let schema = synth.Ickpt_synth.Synth.schema in
  let roots = Ickpt_synth.Synth.roots synth in
  let vfs = Sim.vfs (Sim.create ()) in
  let store =
    Store.open_ ~vfs ~policy:(Policy.Full_every 8) schema ~path:store_path
  in
  let chain = Chain.create schema in
  let append (taken : Chain.taken) =
    ignore (Store.append_segment store taken.segment : Store.append_stats)
  in
  append (Chain.take_full chain roots);
  for _ = 1 to 7 do
    ignore (Ickpt_synth.Synth.mutate_round synth);
    append (Chain.take_incremental chain roots)
  done;
  ignore (Ickpt_synth.Synth.mutate_round synth);
  let seg = (Chain.take_full chain roots).Chain.segment in
  let _, words = allocated (fun () -> Store.append_segment store seg) in
  check_bool "the full folded" true (Store.entry_at store seg.seq).folded;
  if words > 94_000. then
    Alcotest.failf "a folded full's commit allocated %.0f words" words

(* The index frames of a batch are encoded into one stream presized to
   hold them and written once: a gc's rewrite of twelve full entries (a
   213,893-byte index) allocates the presized stream, its contents and
   the simulator's copy of the file, about three times the index's size
   (83k words). Encoding each entry into a fresh 4-KiB stream that
   doubles its way up to the entry, then copying each frame out of it,
   was eleven times (298k words). *)
let index_encode_allocation () =
  let synth =
    Ickpt_synth.Synth.build
      { Ickpt_synth.Synth.default_config with Ickpt_synth.Synth.n_structures = 250 }
  in
  let roots = Ickpt_synth.Synth.roots synth in
  let vfs = Sim.vfs (Sim.create ()) in
  let store =
    Store.open_ ~vfs ~policy:Policy.Always_full
      synth.Ickpt_synth.Synth.schema ~path:store_path
  in
  for _ = 1 to 12 do
    ignore (Store.checkpoint store roots : int)
  done;
  let entries = List.map (Store.entry_at store) (Store.epochs store) in
  let path = Store.index_path store_path in
  ignore (Epoch_index.write_staged vfs ~path entries : string * int);
  let (_, bytes), words =
    allocated (fun () -> Epoch_index.write_staged vfs ~path entries)
  in
  let index_words = float_of_int (bytes / 8) in
  check_bool "full entries" true (bytes > 12 * 10_000);
  if words > 5. *. index_words then
    Alcotest.failf "rewriting a %d-byte index allocated %.0f words" bytes words

(* A chain's entries whose roots are the same ids share one list after a
   reopen; where the roots change, each entry keeps its own, and every
   epoch restores as taken. *)
let shared_roots () =
  let vfs = Sim.vfs (Sim.create ()) in
  let w = make_world () in
  let root = List.hd w.roots in
  let qa = Option.get root.Model.children.(0) in
  let roots = [| [ root ]; [ root ]; [ root ]; [ root; qa ]; [ root; qa ]; [ qa ]; [ qa ] |] in
  let store = Store.open_ ~vfs ~records_per_chunk:4 w.schema ~path:store_path in
  let bodies =
    Array.mapi
      (fun r rs ->
        w.mutate r;
        check_int "epoch" r (Store.checkpoint store rs);
        full_body rs)
      roots
  in
  let store = Store.open_ ~vfs w.schema ~path:store_path in
  let ids rs = List.map (fun o -> o.Model.info.Model.id) rs in
  Array.iteri
    (fun e rs ->
      check_bool "roots as taken" true (Store.roots_of_epoch store e = ids rs);
      check_string "restores as taken" bodies.(e)
        (full_body (snd (Store.restore store ~epoch:e)));
      if e > 0 then
        check_bool
          (Printf.sprintf "epoch %d shares epoch %d's roots" e (e - 1))
          (ids rs = ids roots.(e - 1))
          (Store.roots_of_epoch store e == Store.roots_of_epoch store (e - 1)))
    roots

(* gc rewrites the pack as the kept chunks' bodies in first-reference
   order — each chunk where the first kept entry naming it locates it —
   and the pack and index a gc leaves are pinned by digest, under both
   policies. *)
let gc_files_pinned () =
  List.iter
    (fun (policy, expected) ->
      let vfs = Sim.vfs (Sim.create ()) in
      let w = Sweep.world ~offset:0 in
      let store =
        Store.open_ ~vfs ~records_per_chunk:3 ~policy w.schema ~path:store_path
      in
      for r = 0 to 11 do
        if r > 0 then w.mutate r;
        ignore (Store.checkpoint store w.roots : int)
      done;
      ignore (Store.gc store ~retain:(Store.Keep_last 4) : Store.gc_stats);
      let entries = List.map (Store.entry_at store) (Store.epochs store) in
      let pack =
        reopen_pack ~idx:(Store.index_path store_path) vfs
          (Store.pack_path store_path)
      in
      let seen = Hashtbl.create 64 in
      let first_refs =
        List.concat_map
          (fun (e : Epoch_index.entry) ->
            List.filter
              (fun k ->
                let fresh = not (Hashtbl.mem seen k) in
                Hashtbl.replace seen k ();
                fresh)
              e.chunks)
          entries
      in
      check_string
        (Format.asprintf "%a: kept bodies in first-reference order" Policy.pp
           policy)
        (String.concat "" (List.map (Pack.read pack) first_refs))
        (vfs.Vfs.read_file (Store.pack_path store_path));
      let got =
        List.map
          (fun p -> Digest.to_hex (Digest.string (vfs.Vfs.read_file p)))
          [ Store.pack_path store_path; Store.index_path store_path ]
      in
      Alcotest.(check (list string))
        (Format.asprintf "%a: pack and index digests" Policy.pp policy)
        expected got)
    [ ( Policy.Full_every 3,
        [ "ed3eee96b486b539ea6b3a4cea3dbd9a"; "4202477cc79dd1f07921286ad1e4a758" ] );
      ( Policy.Chain_bytes_limit 40,
        [ "a7836ee240663465fc912f5e761eb7ad"; "3a8d8a8fa448647064dfcb637b965004" ] ) ]

(* The reopen rule restated on [Epoch_index.located_end], as a reference
   for the one-pass [Epochs.recover]. [files] are the index files' raw
   bytes, [decode] reads one item as (entry, chain); [pack_size] is the
   pack file's length. Returns each file's kept [(chain, epoch)]s and
   length, and the pack's length once cut. [None] when no file can be
   read at all as this format (older versions are refused, not cut). *)
let reference_recover ~decode ~pack_size files =
  let intact raw =
    fst
      (In_stream.intact_prefix
         (fun s ~pos ->
           let (e, chain), stop = decode s ~pos in
           ((e, chain, stop), stop))
         raw)
  in
  let rec settle files =
    let located = Hashtbl.create 64 in
    List.iter
      (List.iter (fun (e, _, _) ->
           try
             Epoch_index.iter_located e (fun k ~pos:_ ~len:_ ~crc:_ ->
                 Hashtbl.replace located k ())
           with In_stream.Corrupt _ -> ()))
      files;
    let resolves (e : Epoch_index.entry) =
      match Epoch_index.located_end e with
      | stop -> stop <= pack_size && List.for_all (Hashtbl.mem located) e.chunks
      | exception In_stream.Corrupt _ -> false
    in
    let prefix items =
      let next = Hashtbl.create 8 in
      let rec go acc = function
        | (((e : Epoch_index.entry), chain, _) as it) :: rest
          when Chain.continuity ~next:(Hashtbl.find_opt next chain) e.kind
                 ~epoch:e.epoch
               = None
               && resolves e ->
            Hashtbl.replace next chain (e.epoch + 1);
            go (it :: acc) rest
        | _ -> List.rev acc
      in
      go [] items
    in
    let kept = List.map prefix files in
    if List.for_all2 (fun a b -> List.compare_lengths a b = 0) kept files
    then kept
    else settle kept
  in
  let kept = settle (List.map intact files) in
  let committed =
    List.fold_left
      (fun n (e, _, _) -> max n (Epoch_index.located_end e))
      0 (List.concat kept)
  in
  ( List.map
      (fun items ->
        ( List.map (fun ((e : Epoch_index.entry), chain, _) -> (chain, e.epoch)) items,
          List.fold_left (fun _ (_, _, stop) -> stop) 0 items ))
      kept,
    min pack_size committed )

let plain_item s ~pos =
  let e, stop = Epoch_index.decode s ~pos in
  ((e, 0), stop)

let file_length (vfs : Vfs.t) p = if vfs.Vfs.exists p then vfs.Vfs.size p else 0

(* Random mutations (truncate, flip, splice) of a committed index or pack:
   reopen, restoring every surviving epoch and check raise nothing but
   typed errors, and what restores is what was committed. The reopen keeps
   exactly the entries, index length and pack length the reference keeps. *)
let fuzz_store =
  let chain, files =
    let vfs = Sim.vfs (Sim.create ()) in
    let chain, _, _ = drive ~policy:(Policy.Full_every 3) ~rounds:6 vfs in
    ( chain,
      List.map
        (fun p -> (p, vfs.Vfs.read_file p))
        [ Store.index_path store_path; Store.pack_path store_path ] )
  in
  QCheck2.Test.make ~count:200 ~name:"fuzzed index and pack: typed errors only"
    QCheck2.Gen.(pair bool Test_util.fuzz_ops_gen)
    (fun (index, ops) ->
      let target = fst (List.nth files (if index then 0 else 1)) in
      let seeded =
        List.map
          (fun (p, d) ->
            ( p,
              if p = target then List.fold_left Test_util.apply_fuzz_op d ops
              else d ))
          files
      in
      let vfs = Sim.vfs (Sim.seeded seeded) in
      let typed f =
        match f () with
        | () -> ()
        | exception
            ( Store.Error _ | Dir.Error _ | Restore.Error _
            | In_stream.Corrupt _ ) ->
            ()
      in
      let idx = Store.index_path store_path
      and pack = Store.pack_path store_path in
      let expected =
        reference_recover ~decode:plain_item ~pack_size:(file_length vfs pack)
          [ vfs.Vfs.read_file idx ]
      in
      typed (fun () ->
          let store = Store.open_ ~vfs (make_world ()).schema ~path:store_path in
          let got =
            ( [ ( List.map (fun e -> (0, e)) (Store.epochs store),
                  file_length vfs idx ) ],
              file_length vfs pack )
          in
          if got <> expected then
            QCheck2.Test.fail_reportf
              "reopen kept %d epochs, %d index bytes, %d pack bytes; the \
               reference %d, %d, %d"
              (List.length (fst (List.hd (fst got))))
              (snd (List.hd (fst got))) (snd got)
              (List.length (fst (List.hd (fst expected))))
              (snd (List.hd (fst expected))) (snd expected);
          List.iter
            (fun epoch ->
              typed (fun () ->
                  let _, roots = Store.restore store ~epoch in
                  if full_body roots <> reference_body chain ~epoch then
                    QCheck2.Test.fail_reportf "epoch %d restored wrong" epoch))
            (Store.epochs store);
          ignore (Store.check store : string list));
      true)

(* ------------------------------------------------------------------ *)
(* The crash sweep (extended invariant I7).                           *)

let store_sweep_smoke () =
  let r = Sweep.run ~density:1 (Store_sim.workload ~rounds:4 ()) in
  if not (Sweep.ok r) then Alcotest.failf "%a" Sweep.pp_report r;
  Alcotest.(check (pair int int))
    "exact points, runs" (84, 252) (r.Sweep.r_points, r.Sweep.r_runs)

(* ------------------------------------------------------------------ *)
(* Reshaping scripts: the restore's forward references.               *)

(* Beyond int writes, a script grows new objects under old ones, each new
   one pointing back at an older object, and relinks children to objects
   that exist: sharing, and cycles where [cyclic]. A restore decodes slots
   from the newest down, so a new object pointing to an older one, and a
   cycle's back edge, are the children it links afterwards. *)
type reshape =
  | Write of Test_util.mutation
  | Grow of { parent : int; slot : int; target : int; value : int }
  | Relink of { parent : int; slot : int; target : int }

let reshape_gen =
  QCheck2.Gen.(
    frequency
      [ (2, map (fun m -> Write m) Test_util.mutation_gen);
        ( 2,
          map3
            (fun (parent, slot) target value ->
              Grow { parent; slot; target; value })
            (pair small_nat small_nat) small_nat small_int );
        ( 2,
          map3
            (fun parent slot target -> Relink { parent; slot; target })
            small_nat small_nat small_nat ) ])

let rec reaches ~seen o target =
  o == target
  || (not (Hashtbl.mem seen o.Model.info.Model.id))
     && begin
          Hashtbl.add seen o.Model.info.Model.id ();
          Array.exists
            (function None -> false | Some c -> reaches ~seen c target)
            o.Model.children
        end

let apply_reshape (env : Test_util.env) root ~cyclic op =
  let objs = Array.of_list (Test_util.all_objects root) in
  let pick i = objs.(i mod Array.length objs) in
  let parents =
    Array.of_list
      (List.filter
         (fun o -> Array.length o.Model.children > 0)
         (Array.to_list objs))
  in
  let link parent slot child =
    let p = parents.(parent mod Array.length parents) in
    let slot = slot mod Array.length p.Model.children in
    if cyclic || not (reaches ~seen:(Hashtbl.create 16) child p) then
      Barrier.set_child p slot (Some child)
  in
  match op with
  | Write m -> Test_util.apply_mutations root [ m ]
  | Grow { parent; slot; target; value } ->
      let o = Heap.alloc env.heap env.pair in
      o.Model.ints.(0) <- value;
      o.Model.children.(0) <- Some (pick target);
      link parent slot o
  | Relink { parent; slot; target } -> link parent slot (pick target)

let reshape_prop =
  QCheck2.Test.make ~count:100
    ~name:"restores with forward references and cycles = replay"
    QCheck2.Gen.(
      triple bool Test_util.tree_gen
        (list_size (int_range 1 5) (list_size (int_range 0 6) reshape_gen)))
    (fun (cyclic, tree, rounds) ->
      let env = Test_util.make_env () in
      (* A pair at the root, so every script has an object to link under. *)
      let root = Test_util.build env (Test_util.Pair (0, 0, Some tree, None)) in
      (* An incremental take walks the graph with no visited set, so
         cyclic graphs are checkpointed full. *)
      let policy = if cyclic then Policy.Always_full else Policy.Full_every 3 in
      let vfs = Sim.vfs (Sim.create ()) in
      let chain = Chain.create env.schema in
      let store =
        Store.open_ ~vfs ~records_per_chunk:2 env.schema ~path:store_path
      in
      let taken =
        List.mapi
          (fun r ops ->
            if r > 0 then List.iter (apply_reshape env root ~cyclic) ops;
            let t =
              match
                Policy.decide policy ~next:(Chain.next chain)
                  ~since_full_bytes:(Chain.since_full_bytes chain)
              with
              | Segment.Full -> Chain.take_full chain [ root ]
              | Segment.Incremental -> Chain.take_incremental chain [ root ]
            in
            ignore (Store.append_segment store t.Chain.segment);
            full_body [ root ])
          ([] :: rounds)
      in
      let latest = List.length rounds in
      let agree name store =
        List.iteri
          (fun e live ->
            let _, stored = Store.restore store ~epoch:e in
            let _, replayed = replay_restore chain ~epoch:e in
            if full_body stored <> live || full_body replayed <> live then
              QCheck2.Test.fail_reportf "%s: epoch %d differs from replay" name
                e;
            if reference_body chain ~epoch:e <> live then
              QCheck2.Test.fail_reportf
                "%s: epoch %d differs from the reference" name e;
            if e = latest && not (roots_equal [ root ] stored) then
              QCheck2.Test.fail_reportf
                "%s: the latest epoch differs from the live heap" name)
          taken
      in
      agree "in session" store;
      agree "reopened" (Store.open_ ~vfs env.schema ~path:store_path);
      true)

(* ------------------------------------------------------------------ *)
(* QCheck satellite: random synth heaps, all four policies.           *)

let policies =
  [ Policy.Always_full;
    Policy.Incremental_after_base;
    Policy.Full_every 3;
    Policy.Chain_bytes_limit 256 ]

let synth_config_gen =
  let open QCheck2.Gen in
  let* n_structures = int_range 1 4 in
  let* n_lists = int_range 1 3 in
  let* list_len = int_range 1 4 in
  let* n_int_fields = int_range 1 3 in
  let* pct_modified = oneofl [ 25; 50; 100 ] in
  let* modified_lists = int_range 1 n_lists in
  let* last_only = bool in
  let* seed = int_range 0 10_000 in
  let* rounds = int_range 1 5 in
  return
    ( { Ickpt_synth.Synth.n_structures; n_lists; list_len; n_int_fields;
        pct_modified; modified_lists; last_only; seed },
      rounds )

let restore_roundtrip_prop =
  QCheck2.Test.make ~name:"store & chain restores agree on synth heaps"
    ~count:12 ~print:(fun (c, rounds) ->
      Format.asprintf "%a rounds=%d" Ickpt_synth.Synth.pp_config c rounds)
    synth_config_gen
    (fun (config, rounds) ->
      List.for_all
        (fun policy ->
          let t = Ickpt_synth.Synth.build config in
          let roots = Ickpt_synth.Synth.roots t in
          let sim = Sim.create () in
          let chain = Chain.create t.Ickpt_synth.Synth.schema in
          let store =
            Store.open_ ~vfs:(Sim.vfs sim) ~records_per_chunk:4
              t.Ickpt_synth.Synth.schema ~path:store_path
          in
          let svc =
            Service.open_ ~vfs:(Sim.vfs sim) ~records_per_chunk:4 ~path:"svc" ()
          in
          let tenant =
            Service.open_tenant svc t.Ickpt_synth.Synth.schema ~name:"t"
          in
          let epochs = ref [] in
          for r = 0 to rounds do
            if r > 0 then ignore (Ickpt_synth.Synth.mutate_round t);
            let taken =
              match
                Policy.decide policy ~next:(Chain.next chain)
                  ~since_full_bytes:(Chain.since_full_bytes chain)
              with
              | Segment.Full -> Chain.take_full chain roots
              | Segment.Incremental -> Chain.take_incremental chain roots
            in
            ignore (Store.append_segment store taken.Chain.segment);
            ignore (Service.append tenant taken.Chain.segment : int);
            (* Accumulate+materialize of the chain equals the live heap. *)
            let _, recovered =
              match Chain.recover chain with
              | Ok x -> x
              | Error e -> QCheck2.Test.fail_reportf "recover: %s" e
            in
            if not (roots_equal roots recovered) then
              QCheck2.Test.fail_reportf
                "chain restore differs from live heap at epoch %d" r;
            epochs := r :: !epochs
          done;
          (* Store-, service- and chain-backed restores agree with the
             reference at EVERY epoch, byte for byte. *)
          List.for_all
            (fun e ->
              let _, replayed = replay_restore chain ~epoch:e in
              let _, stored = Store.restore store ~epoch:e in
              let _, served = Service.restore tenant ~epoch:e in
              let reference = reference_body chain ~epoch:e in
              roots_equal replayed stored
              && List.for_all
                   (fun roots -> String.equal reference (full_body roots))
                   [ replayed; stored; served ]
              && Store.segment_of_epoch store e
                 = List.find
                     (fun (s : Segment.t) -> s.seq = e)
                     (Chain.segments chain))
            !epochs
          && Store.check store = []
          && Service.check svc = [])
        policies)

(* ------------------------------------------------------------------ *)
(* Folded fulls.                                                       *)

(* Per chunk a folded full references, the bytes of its records there,
   each framed by the schema; with the chunk's length. *)
let referenced_bytes schema pack (e : Epoch_index.entry) =
  let keys = Array.of_list e.chunks in
  let data = Pack.read_many pack keys in
  let live = Array.make (Array.length keys) 0 in
  Epoch_index.iter_dir e (fun _ c off ->
      let d = data.(c) in
      live.(c) <-
        live.(c) + Restore.frame_len schema d ~pos:off ~len:(String.length d - off));
  Array.mapi (fun c k -> (k, live.(c), String.length data.(c))) keys

(* The files of a store or a service at [path] (a missing one: empty). *)
let store_files (vfs : Vfs.t) path =
  List.map vfs.Vfs.read_file [ Store.pack_path path; Store.index_path path ]

let service_files vfs path =
  List.map (Vfs.contents vfs)
    (Service.pack_path path :: Service.meta_path path
     :: Service.catalog_path path
     :: List.init Ickpt_service.Shard.default_count
          (Service.shard_index_path path))

(* Over a long synth run with a full every fourth epoch, every full after
   the first is folded, every chunk a folded full references holds at
   least [Epochs.min_live_percent] of its bytes in records of that full,
   and every epoch restores and reassembles exactly, in session, after a
   reopen, and after a gc. A fold compares with the chain's image in
   memory, or after a reopen with what the pack holds, and decides alike:
   a store, and a service tenant, reopened before the fulls [reopens]
   picks write the same files as ones never reopened. *)
let folded_fulls_prop =
  QCheck2.Test.make ~name:"folded fulls: chunks at least half live, exact"
    ~count:6
    QCheck2.Gen.(
      pair
        (pair (int_range 0 10_000) (int_range 0 511))
        (pair (int_range 10 30) (oneofl [ 10; 25; 50 ])))
    (fun ((seed, reopens), (n_structures, pct_modified)) ->
      let epochs = 40 in
      let policy = Policy.Full_every 4 in
      (* Feeds each segment of one synth run to [append], [~again] before
         each full the mask picks (the fulls after the first, in order)
         when [reopen]. *)
      let drive ~reopen append =
        let t =
          Ickpt_synth.Synth.build
            { Ickpt_synth.Synth.default_config with
              n_structures; pct_modified; modified_lists = 1; seed }
        in
        let schema = t.Ickpt_synth.Synth.schema in
        let roots = Ickpt_synth.Synth.roots t in
        let chain = Chain.create schema in
        for r = 0 to epochs - 1 do
          if r > 0 then ignore (Ickpt_synth.Synth.mutate_round t);
          let kind =
            Policy.decide policy ~next:(Chain.next chain)
              ~since_full_bytes:(Chain.since_full_bytes chain)
          in
          let taken =
            match kind with
            | Segment.Full -> Chain.take_full chain roots
            | Segment.Incremental -> Chain.take_incremental chain roots
          in
          let again =
            reopen && kind = Segment.Full && r > 0
            && (reopens lsr ((r / 4) - 1)) land 1 = 1
          in
          append schema ~again taken.Chain.segment
        done;
        (schema, chain)
      in
      let store_run ~reopen =
        let vfs = Sim.vfs (Sim.create ()) in
        let store = ref None in
        let open_store schema =
          Store.open_ ~vfs ~records_per_chunk:4 ~policy schema ~path:store_path
        in
        let schema, chain =
          drive ~reopen (fun schema ~again seg ->
              if again || !store = None then store := Some (open_store schema);
              ignore (Store.append_segment (Option.get !store) seg))
        in
        (vfs, Option.get !store, (fun () -> open_store schema), schema, chain)
      in
      let service_files_of ~reopen =
        let vfs = Sim.vfs (Sim.create ()) in
        let svc = ref None in
        let path = "svc" in
        let open_tenant schema =
          Option.iter Service.close (Option.map fst !svc);
          let s = Service.open_ ~vfs ~records_per_chunk:4 ~policy ~path () in
          let tn = Service.open_tenant s schema ~name:"tenant" in
          svc := Some (s, tn)
        in
        ignore
          (drive ~reopen (fun schema ~again seg ->
               if again || !svc = None then open_tenant schema;
               ignore (Service.append (snd (Option.get !svc)) seg : int))
            : Schema.t * Chain.t);
        Service.close (fst (Option.get !svc));
        service_files vfs path
      in
      let vfs, store, open_store, schema, chain = store_run ~reopen:false in
      let reopened_vfs, _, _, _, _ = store_run ~reopen:true in
      if store_files vfs store_path <> store_files reopened_vfs store_path then
        QCheck2.Test.fail_report "a store reopened before fulls wrote other files";
      if service_files_of ~reopen:false <> service_files_of ~reopen:true then
        QCheck2.Test.fail_report
          "a service tenant reopened before fulls wrote other files";
      let pack =
        reopen_pack ~idx:(Store.index_path store_path) vfs
          (Store.pack_path store_path)
      in
      let entries = List.map (Store.entry_at store) (Store.epochs store) in
      let fulls = List.filter (fun (e : Epoch_index.entry) -> e.kind = Full) entries in
      if
        not
          (List.for_all
             (fun (e : Epoch_index.entry) -> e.folded = (e.epoch > 0))
             fulls)
      then QCheck2.Test.fail_report "a full after the first is not folded";
      List.iter
        (fun (e : Epoch_index.entry) ->
          if e.folded then
            Array.iter
              (fun (k, live, len) ->
                if live * 100 < Epochs.min_live_percent * len then
                  QCheck2.Test.fail_reportf
                    "epoch %d references chunk %s: %d of its %d bytes" e.epoch
                    (Hash64.to_hex k) live len)
              (referenced_bytes schema pack e))
        entries;
      let exact store =
        List.for_all
          (fun e ->
            let _, stored = Store.restore store ~epoch:e in
            String.equal (reference_body chain ~epoch:e) (full_body stored)
            && Store.segment_of_epoch store e
               = List.find (fun (s : Segment.t) -> s.seq = e) (Chain.segments chain))
          (Store.epochs store)
        && Store.check store = []
      in
      let in_session = exact store in
      let reopened = exact (open_store ()) in
      ignore (Store.gc store ~retain:(Store.Keep_last 6) : Store.gc_stats);
      in_session && reopened && exact store && exact (open_store ()))

(* A full is committed whole when it cannot be folded: when none of its
   records equals the chain's live one, and when a chunk a live record of
   the chain lies in fails its CRC. Either way it restores as taken and
   reassembles exactly, in session and after a reopen, and check names
   the corrupt chunk. *)
let fold_fallbacks () =
  let schema = Schema.create () in
  let node = Schema.declare schema ~name:"Node" ~ints:1 ~children:1 () in
  let heap = Heap.create schema in
  let nodes = Array.init 41 (fun _ -> Heap.alloc heap node) in
  Array.iteri
    (fun i o -> if i > 0 then Barrier.set_child nodes.(i - 1) 0 (Some o))
    nodes;
  let roots = [ nodes.(0) ] in
  let vfs = Sim.vfs (Sim.create ()) in
  let open_store () =
    Store.open_ ~vfs ~records_per_chunk:4 ~policy:Policy.Always_full schema
      ~path:store_path
  in
  let chain = Chain.create schema and store = ref (open_store ()) in
  let take () =
    let seg = (Chain.take_full chain roots).Chain.segment in
    ignore (Store.append_segment !store seg : Store.append_stats);
    seg
  in
  let entry (seg : Segment.t) = Store.entry_at !store seg.seq in
  let exact label (seg : Segment.t) =
    let _, restored = Store.restore !store ~epoch:seg.seq in
    check_string (label ^ ": restores as taken") seg.body (full_body restored);
    check_bool (label ^ ": reassembles exactly") true
      (Store.segment_of_epoch !store seg.seq = seg)
  in
  ignore (take () : Segment.t);
  Array.iter (fun o -> Barrier.set_int o 0 (Barrier.get_int o 0 + 1000)) nodes;
  let every = take () in
  check_bool "every record changed: whole" false (entry every).folded;
  exact "every record changed" every;
  Barrier.set_int nodes.(9) 0 7;
  let one = take () in
  check_bool "one record changed: folded" true (entry one).folded;
  (* The new chunk holding that record alone: no later split cuts it, so
     only a fold reads it. *)
  let key =
    List.find (fun k -> not (List.mem k (entry every).chunks)) (entry one).chunks
  in
  let pack = Store.pack_path store_path in
  let bytes =
    Pack.read (reopen_pack ~idx:(Store.index_path store_path) vfs pack) key
  in
  flip_byte vfs pack
    (find_sub (vfs.Vfs.read_file pack) bytes + (String.length bytes / 2));
  store := open_store ();
  Barrier.set_int nodes.(30) 0 8;
  let after = take () in
  check_bool "a live chunk corrupt: whole" false (entry after).folded;
  exact "a live chunk corrupt" after;
  store := open_store ();
  exact "reopened, a live chunk corrupt" after;
  exact "reopened, every record changed" every;
  check_bool "check names the corrupt chunk" true
    (List.exists
       (fun e -> contains e (Hash64.to_hex key) && contains e "crc")
       (Store.check !store))

(* A source chunk keeps its records in place when the bytes staying in
   it are exactly {!Epochs.min_live_percent} of its length, and gives
   them up one byte under. Two records to a chunk: the list's last two
   share one, the last changes, and the one before it stays with half its
   chunk's bytes, or, when the last was a byte longer, a byte under half.
   The store and a service tenant fold alike, and every epoch restores as
   taken, in session and after a reopen. *)
let fold_boundary () =
  check_int "two records of a length are the boundary" 50 Epochs.min_live_percent;
  let schema = Schema.create () in
  let node = Schema.declare schema ~name:"Node" ~ints:1 ~children:1 () in
  let case label ~last ~longer ~kept =
    let heap = Heap.create schema in
    let nodes = Array.init 4 (fun _ -> Heap.alloc heap node) in
    Array.iteri
      (fun i o -> if i > 0 then Barrier.set_child nodes.(i - 1) 0 (Some o))
      nodes;
    Barrier.set_int nodes.(3) 0 last;
    let roots = [ nodes.(0) ] in
    let vfs = Sim.vfs (Sim.create ()) in
    let open_store () =
      Store.open_ ~vfs ~records_per_chunk:2 ~policy:Policy.Always_full schema
        ~path:store_path
    in
    let open_service () =
      let svc = Service.open_ ~vfs ~records_per_chunk:2 ~path:"svc" () in
      (svc, Service.open_tenant svc schema ~name:"t")
    in
    let chain = Chain.create schema in
    let store = ref (open_store ()) and svc = ref (open_service ()) in
    let take () =
      let seg = (Chain.take_full chain roots).Chain.segment in
      ignore (Store.append_segment !store seg : Store.append_stats);
      ignore (Service.append (snd !svc) seg : int);
      seg
    in
    let first = take () in
    let ids, offs, n = Restore.frames schema first.body in
    check_int (label ^ ": records") 4 n;
    check_int (label ^ ": the changing record last") nodes.(3).Model.info.Model.id
      ids.(3);
    check_int (label ^ ": the last record's extra bytes") longer
      (String.length first.body - offs.(3) - (offs.(3) - offs.(2)));
    Barrier.set_int nodes.(3) 0 (last + 1);
    let second = take () in
    let tenant = Service.tenant_id "t" in
    let served epoch =
      (List.find
         (fun (m : Epoch_index.mux_entry) ->
           m.m_tenant = tenant && m.m_entry.epoch = epoch)
         (Service.committed (fst !svc)))
        .m_entry
    in
    List.iter
      (fun (who, (entry : int -> Epoch_index.entry)) ->
        let shared = List.nth (entry first.seq).chunks 1 in
        check_bool (Printf.sprintf "%s %s: folded" label who) true
          (entry second.seq).folded;
        check_bool
          (Printf.sprintf "%s %s: the last chunk's first record in place" label who)
          kept
          (List.mem shared (entry second.seq).chunks))
      [ ("store", Store.entry_at !store); ("service", served) ];
    let restores when_ =
      List.iter
        (fun (seg : Segment.t) ->
          let _, stored = Store.restore !store ~epoch:seg.seq in
          let _, tenant_restored = Service.restore (snd !svc) ~epoch:seg.seq in
          List.iter
            (fun (who, roots) ->
              check_string
                (Printf.sprintf "%s %s %s: epoch %d as taken" label who when_ seg.seq)
                seg.body (full_body roots))
            [ ("store", stored); ("service", tenant_restored) ])
        [ first; second ]
    in
    restores "in session";
    Service.close (fst !svc);
    store := open_store ();
    svc := open_service ();
    restores "reopened";
    Service.close (fst !svc)
  in
  case "exactly half" ~last:5 ~longer:0 ~kept:true;
  case "a byte under half" ~last:100 ~longer:1 ~kept:false

(* A body that repeats a record, one record to a chunk, cuts two chunks
   with one key. Folded, both stay where they lie, and the entry names
   that key once: the fold's two chunks become one, which the places the
   image keeps and the chunk lengths the next fold reads follow. Every
   epoch reassembles exactly, in session and after a reopen. *)
let fold_shared_key () =
  let schema = Schema.create () in
  let leaf = Schema.declare schema ~name:"Leaf" ~ints:1 ~children:0 () in
  let heap = Heap.create schema in
  let o = Heap.alloc heap leaf in
  Barrier.set_int o 0 7;
  let record = full_body [ o ] in
  let seg seq =
    { Segment.kind = Segment.Full; seq; roots = [ o.Model.info.Model.id ];
      body = record ^ record }
  in
  let vfs = Sim.vfs (Sim.create ()) in
  let open_store () =
    Store.open_ ~vfs ~records_per_chunk:1 ~policy:Policy.Always_full schema
      ~path:store_path
  in
  let store = ref (open_store ()) in
  List.iter
    (fun seq -> ignore (Store.append_segment !store (seg seq) : Store.append_stats))
    [ 0; 1; 2 ];
  let entry seq = Store.entry_at !store seq in
  let key = List.hd (entry 0).chunks in
  check_bool "the whole full: one key twice" true ((entry 0).chunks = [ key; key ]);
  List.iter
    (fun seq ->
      check_bool (Printf.sprintf "epoch %d folded" seq) true (entry seq).folded;
      check_bool (Printf.sprintf "epoch %d names the key once" seq) true
        ((entry seq).chunks = [ key ]))
    [ 1; 2 ];
  let exact when_ =
    List.iter
      (fun seq ->
        check_bool (Printf.sprintf "%s: epoch %d reassembles exactly" when_ seq) true
          (Store.segment_of_epoch !store seq = seg seq))
      [ 0; 1; 2 ];
    check_bool (when_ ^ ": consistent") true (Store.check !store = [])
  in
  exact "in session";
  store := open_store ();
  exact "reopened"

(* A full folded against a chain committed in this session reads no pack
   byte: it is compared with the chain's image in memory. After a reopen
   there is no image, and the first folded full makes one positional
   read, of exactly the chunks some live record lies in: not a chunk
   every record of which a newer one replaced. Its records are about
   1.1 KB, four to a chunk, so every chunk is longer than the gap a
   fetch reads across, and a chunk it skips is not read. *)
let fold_reads () =
  let schema = Schema.create () in
  let node = Schema.declare schema ~name:"Node" ~ints:1100 ~children:1 () in
  let heap = Heap.create schema in
  let nodes = Array.init 24 (fun _ -> Heap.alloc heap node) in
  Array.iteri
    (fun i o -> if i > 0 then Barrier.set_child nodes.(i - 1) 0 (Some o))
    nodes;
  let roots = [ nodes.(0) ] in
  let vfs, reads = counting_vfs (Sim.vfs (Sim.create ())) ~suffix:".pack" in
  let open_store () =
    Store.open_ ~vfs ~records_per_chunk:4 ~policy:Policy.Always_full schema
      ~path:store_path
  in
  let chain = Chain.create schema and store = ref (open_store ()) in
  let set lo hi v =
    for i = lo to hi do
      Barrier.set_int nodes.(i) 0 v
    done
  in
  let append (taken : Chain.taken) =
    reads.bytes <- 0;
    reads.calls <- 0;
    ignore (Store.append_segment !store taken.segment : Store.append_stats);
    taken.segment.seq
  in
  let full () = append (Chain.take_full chain roots) in
  let incremental () = append (Chain.take_incremental chain roots) in
  let folded e = (Store.entry_at !store e).Epoch_index.folded in
  (* The base full, then nodes 4..7 (its second chunk) rewritten twice. *)
  ignore (full () : int);
  set 4 7 1;
  ignore (incremental () : int);
  set 4 7 2;
  ignore (incremental () : int);
  set 10 10 3;
  let e = full () in
  check_bool "in session: folded" true (folded e);
  check_int "in session: no pack read" 0 reads.calls;
  store := open_store ();
  set 16 19 4;
  ignore (incremental () : int);
  set 0 0 5;
  let e = full () in
  check_bool "after a reopen: folded" true (folded e);
  check_int "after a reopen: one pack read" 1 reads.calls;
  (* The live chunks: each id's newest record, among the entries since
     the newest full before [e]. *)
  let pack =
    reopen_pack ~idx:(Store.index_path store_path) vfs
      (Store.pack_path store_path)
  in
  let entries =
    List.filter
      (fun (x : Epoch_index.entry) -> x.epoch < e)
      (List.map (Store.entry_at !store) (Store.epochs !store))
  in
  let live = Hashtbl.create 16 in
  Dir.iter
    (Dir.fold_in pack ~entries ~epoch:(e - 1))
    (fun _ (key, _) -> Hashtbl.replace live key ());
  let bytes keys =
    List.fold_left (fun n k -> n + Pack.chunk_len pack k) 0 (List.sort_uniq compare keys)
  in
  let live_bytes = bytes (List.of_seq (Hashtbl.to_seq_keys live)) in
  let since =
    bytes
      (List.concat_map
         (fun (x : Epoch_index.entry) -> x.chunks)
         (Epoch_index.since_full entries ~epoch:(e - 1)))
  in
  check_bool "a chunk since the full holds no live record" true
    (since > live_bytes);
  check_int "after a reopen: the live chunks read" live_bytes reads.bytes;
  set 8 8 6;
  ignore (incremental () : int);
  let e = full () in
  check_bool "after the first fold: folded" true (folded e);
  check_int "after the first fold: no pack read" 0 reads.calls;
  List.iter
    (fun epoch ->
      let _, restored = Store.restore !store ~epoch in
      check_string
        (Printf.sprintf "epoch %d restores as taken" epoch)
        (reference_body chain ~epoch) (full_body restored))
    (Store.epochs !store)

(* A full whose pack write fails leaves the chain's image as it was. The
   store takes the full again, which folds in session, reading no pack
   byte, to the same files as on a store whose commit never failed. *)
let failed_full_keeps_image () =
  let run ~fail =
    let t =
      Ickpt_synth.Synth.build
        { Ickpt_synth.Synth.default_config with
          n_structures = 20; pct_modified = 25; modified_lists = 1; seed = 3 }
    in
    let schema = t.Ickpt_synth.Synth.schema in
    let roots = Ickpt_synth.Synth.roots t in
    let sim =
      Sim.create
        ?fault:(Option.map (fun op -> Sim.Fail_at { op; byte = 0 }) fail)
        ()
    in
    let vfs, reads = counting_vfs (Sim.vfs sim) ~suffix:".pack" in
    let store =
      Store.open_ ~vfs ~records_per_chunk:4 ~policy:(Policy.Full_every 4)
        schema ~path:store_path
    in
    let ops = ref 0 in
    for r = 0 to 6 do
      if r > 0 then ignore (Ickpt_synth.Synth.mutate_round t);
      if r = 4 then begin
        ops := Sim.ops sim;
        if fail <> None then
          match Store.checkpoint store roots with
          | _ -> Alcotest.fail "a full whose pack write failed committed"
          | exception Sim.Io_error -> ()
      end;
      reads.calls <- 0;
      let e = Store.checkpoint store roots in
      if r = 4 then begin
        check_int "the full's epoch" 4 e;
        check_bool "the full folded" true
          (Store.entry_at store e).Epoch_index.folded;
        check_int "the full read no pack byte" 0 reads.calls
      end
    done;
    (!ops, store_files vfs store_path)
  in
  let op, files = run ~fail:None in
  let _, failed = run ~fail:(Some op) in
  check_bool "the same files as a store that never failed" true (files = failed)

(* A full framed against its chain's image and committed only after
   another epoch of the chain moved the image on, as a service append
   racing its tenant's batch is, is compared again with the moved image:
   it folds, and writes the files of a full framed after that epoch. *)
let stale_full () =
  let t =
    Ickpt_synth.Synth.build
      { Ickpt_synth.Synth.default_config with
        n_structures = 20; pct_modified = 25; modified_lists = 1; seed = 5 }
  in
  let schema = t.Ickpt_synth.Synth.schema in
  let roots = Ickpt_synth.Synth.roots t in
  let producer = Chain.create schema in
  let segs =
    Array.init 4 (fun r ->
        if r > 0 then ignore (Ickpt_synth.Synth.mutate_round t : int);
        (if r = 0 || r = 3 then Chain.take_full else Chain.take_incremental)
          producer roots)
    |> Array.map (fun (taken : Chain.taken) -> taken.segment)
  in
  let run ~stale =
    let vfs = Sim.vfs (Sim.create ()) in
    let pack = Pack.open_ ~vfs "f.pack" in
    let chain = Epochs.chain ~file:"f.idx" ~id:0 schema [] in
    let commit seg it =
      check_bool "admitted" true (Epochs.admit chain seg = None);
      ignore (Epochs.commit Epochs.plain vfs ~path:"f.idx" pack [ it ]
        : _ Epochs.committed)
    in
    let append seg = commit seg (Epochs.item chain ~records_per_chunk:4 seg) in
    append segs.(0);
    append segs.(1);
    if stale then begin
      let full = Epochs.item chain ~records_per_chunk:4 segs.(3) in
      append segs.(2);
      commit segs.(3) full
    end
    else begin
      append segs.(2);
      append segs.(3)
    end;
    check_bool "the full folded" true (List.nth (Epochs.entries chain) 3).folded;
    List.map vfs.Vfs.read_file [ "f.pack"; "f.idx" ]
  in
  check_bool "a stale full writes the same files" true
    (run ~stale:true = run ~stale:false)

(* The lookup a fold makes among a full's ids finds each id's first
   index, as a linear scan does: over dense ids (an array of positions)
   and sparse ones (sorted positions searched by halving), each maybe
   repeated, and ids the full lacks. *)
let id_index_prop =
  QCheck2.Test.make ~name:"id index agrees with a linear scan" ~count:300
    QCheck2.Gen.(
      triple
        (oneofl [ 1; 2; 3; 1000; 1 lsl 40 ])
        (int_range (-50) 50)
        (list_size (int_range 0 60) (int_range 0 40)))
    (fun (stride, base, picks) ->
      let id k = base + (k * stride) in
      let ids = Array.of_list (List.map id picks) in
      let scan x =
        let rec go i =
          if i = Array.length ids then -1 else if ids.(i) = x then i else go (i + 1)
        in
        go 0
      in
      let find = Epochs.id_index ids in
      List.for_all
        (fun x -> find x = scan x)
        (List.concat_map
           (fun k -> [ id k; id k + 1; id k - 1 ])
           (List.init 43 (fun k -> k - 1))))

(* A heap that unlinks list elements between fulls: a folded full holds
   exactly the reachable objects, as a whole full of the same body does,
   in session and after a reopen, and no unlinked id comes back. *)
let unlinking_heap () =
  let schema = Schema.create () in
  let node = Schema.declare schema ~name:"Node" ~ints:1 ~children:1 () in
  let heap = Heap.create schema in
  let head = Heap.alloc heap node in
  let rec build prev k =
    if k > 0 then begin
      let o = Heap.alloc heap node in
      Barrier.set_int o 0 k;
      Barrier.set_child prev 0 (Some o);
      build o (k - 1)
    end
  in
  build head 40;
  let rec reachable o acc =
    let acc = o.Model.info.Model.id :: acc in
    match Barrier.get_child o 0 with Some c -> reachable c acc | None -> acc
  in
  let ids_of h =
    let l = ref [] in
    Heap.iter h (fun o -> l := o.Model.info.Model.id :: !l);
    List.sort compare !l
  in
  let vfs = Sim.vfs (Sim.create ()) in
  let open_store path =
    Store.open_ ~vfs ~records_per_chunk:4 ~policy:(Policy.Full_every 4) schema
      ~path
  in
  let store = open_store store_path in
  let taken = ref [] and unlinked = ref [] in
  for r = 0 to 15 do
    if r > 0 then begin
      (* Unlink the element after the [r mod 5]th, and change another. *)
      let rec nth o k =
        if k = 0 then o
        else match Barrier.get_child o 0 with Some c -> nth c (k - 1) | None -> o
      in
      let prev = nth head (r mod 5) in
      (match Barrier.get_child prev 0 with
      | Some gone ->
          unlinked := (r, gone.Model.info.Model.id) :: !unlinked;
          Barrier.set_child prev 0 (Barrier.get_child gone 0)
      | None -> ());
      let o = nth head (7 + r) in
      Barrier.set_int o 0 (Barrier.get_int o 0 + 100)
    end;
    let e = Store.checkpoint store [ head ] in
    taken := (e, List.sort compare (reachable head []), full_body [ head ]) :: !taken
  done;
  let folded =
    List.filter
      (fun (e, _, _) -> (Store.entry_at store e).Epoch_index.folded)
      !taken
  in
  check_bool "fulls after the first are folded" true (List.length folded >= 3);
  let check_store label store =
    List.iter
      (fun (e, ids, body) ->
        let h, roots = Store.restore store ~epoch:e in
        check_string (Printf.sprintf "%s: epoch %d restores as taken" label e)
          body (full_body roots);
        if Store.kind_of_epoch store e = Segment.Full then begin
          check_bool
            (Printf.sprintf "%s: full %d holds the reachable ids" label e)
            true (ids_of h = ids);
          (* Epoch [r] is taken in round [r], after its unlink. *)
          check_bool
            (Printf.sprintf "%s: no unlinked id in full %d" label e)
            false
            (List.exists
               (fun (r, id) -> r <= e && List.mem id (ids_of h))
               !unlinked)
        end)
      !taken
  in
  check_store "in session" store;
  check_store "reopened" (open_store store_path);
  (* A whole full of the same body restores the same ids. *)
  List.iter
    (fun (e, _, _) ->
      let whole = open_store (Printf.sprintf "whole%d" e) in
      ignore (Store.append_segment whole (Store.segment_of_epoch store e));
      check_bool
        (Printf.sprintf "epoch %d whole" e)
        false (Store.entry_at whole e).Epoch_index.folded;
      check_bool
        (Printf.sprintf "epoch %d: folded and whole restore the same ids" e)
        true
        (ids_of (fst (Store.restore whole ~epoch:e))
        = ids_of (fst (Store.restore store ~epoch:e))))
    folded

(* A heap that allocates list elements and moves others between fulls:
   an incremental holds ids its image's full lacks, and a full holds them
   too and holds records out of that full's order, so a fold finds
   records through its table of the ids the full lacks and through the
   table of the full's ids its cursor falls back to. Every full after the
   first is folded; every epoch restores as taken, in session and after a
   reopen; and a store, and a service tenant, reopened before each full
   write the same files as ones never reopened. *)
let growing_heap () =
  let policy = Policy.Full_every 4 in
  (* Feeds the segments of one run to [append], [~again] before each full
     after the first. *)
  let drive append =
    let schema = Schema.create () in
    let node = Schema.declare schema ~name:"Node" ~ints:1 ~children:1 () in
    let heap = Heap.create schema in
    let head = Heap.alloc heap node in
    let rec nth o k =
      if k = 0 then o
      else match Barrier.get_child o 0 with Some c -> nth c (k - 1) | None -> o
    in
    let insert_after prev o =
      Barrier.set_child o 0 (Barrier.get_child prev 0);
      Barrier.set_child prev 0 (Some o)
    in
    let add v =
      let o = Heap.alloc heap node in
      Barrier.set_int o 0 v;
      o
    in
    for k = 1 to 30 do
      insert_after head (add k)
    done;
    let chain = Chain.create schema in
    for r = 0 to 23 do
      if r > 0 then begin
        insert_after (nth head (r mod 7)) (add (1000 + r));
        (* The element after the [3 + r mod 5]th moves further down. *)
        let prev = nth head (3 + (r mod 5)) in
        Option.iter
          (fun moved ->
            Barrier.set_child prev 0 (Barrier.get_child moved 0);
            insert_after (nth head (20 + (r mod 6))) moved)
          (Barrier.get_child prev 0)
      end;
      let kind =
        Policy.decide policy ~next:(Chain.next chain)
          ~since_full_bytes:(Chain.since_full_bytes chain)
      in
      let taken =
        match kind with
        | Segment.Full -> Chain.take_full chain [ head ]
        | Segment.Incremental -> Chain.take_incremental chain [ head ]
      in
      append schema ~again:(kind = Segment.Full && r > 0) taken.Chain.segment
    done;
    chain
  in
  let store_run ~reopen =
    let vfs = Sim.vfs (Sim.create ()) in
    let store = ref None and schema = ref None in
    let open_store s =
      Store.open_ ~vfs ~records_per_chunk:4 ~policy s ~path:store_path
    in
    let chain =
      drive (fun s ~again seg ->
          schema := Some s;
          if (again && reopen) || !store = None then store := Some (open_store s);
          ignore (Store.append_segment (Option.get !store) seg))
    in
    (vfs, chain, Option.get !store, fun () -> open_store (Option.get !schema))
  in
  let exact label chain epochs restore =
    List.iter
      (fun epoch ->
        check_string
          (Printf.sprintf "%s: epoch %d restores as taken" label epoch)
          (reference_body chain ~epoch)
          (full_body (snd (restore epoch))))
      epochs
  in
  let exact_tenant label chain tenant =
    check_int (label ^ ": every epoch committed") 24
      (List.length (Service.epochs tenant));
    exact label chain (Service.epochs tenant) (fun epoch ->
        Service.restore tenant ~epoch)
  in
  let service_run ~reopen =
    let vfs = Sim.vfs (Sim.create ()) in
    let svc = ref None and schema = ref None in
    let open_tenant s =
      Option.iter (fun (svc, _) -> Service.close svc) !svc;
      let svc' = Service.open_ ~vfs ~records_per_chunk:4 ~policy ~path:"svc" () in
      svc := Some (svc', Service.open_tenant svc' s ~name:"tenant")
    in
    let chain =
      drive (fun s ~again seg ->
          schema := Some s;
          if (again && reopen) || !svc = None then open_tenant s;
          ignore (Service.append (snd (Option.get !svc)) seg : int))
    in
    exact_tenant "tenant" chain (snd (Option.get !svc));
    Service.close (fst (Option.get !svc));
    let files = service_files vfs "svc" in
    svc := None;
    open_tenant (Option.get !schema);
    exact_tenant "tenant reopened" chain (snd (Option.get !svc));
    Service.close (fst (Option.get !svc));
    files
  in
  let vfs, chain, store, reopen_store = store_run ~reopen:false in
  let reopened_vfs, _, _, _ = store_run ~reopen:true in
  check_bool "a store reopened before fulls writes the same files" true
    (store_files vfs store_path = store_files reopened_vfs store_path);
  check_bool "a tenant reopened before fulls writes the same files" true
    (service_run ~reopen:false = service_run ~reopen:true);
  List.iter
    (fun e ->
      if Store.kind_of_epoch store e = Segment.Full then
        check_bool
          (Printf.sprintf "full %d folded" e)
          (e > 0) (Store.entry_at store e).Epoch_index.folded)
    (Store.epochs store);
  exact "store" chain (Store.epochs store) (fun epoch ->
      Store.restore store ~epoch);
  let reopened = reopen_store () in
  exact "store reopened" chain (Store.epochs reopened) (fun epoch ->
      Store.restore reopened ~epoch)

let suites =
  [ ( "store.hash64",
      [ Alcotest.test_case "basics and vectors" `Quick hash64_basics ] );
    ( "store.chunk",
      [ Alcotest.test_case "split roundtrip" `Quick chunk_split_roundtrip;
        Alcotest.test_case "alignment stability" `Quick
          chunk_alignment_stability;
        Alcotest.test_case "one-pass split oracle" `Quick chunk_split_oracle;
        QCheck_alcotest.to_alcotest chunk_split_prop;
        QCheck_alcotest.to_alcotest common_prefix_prop ] );
    ( "store.framing",
      [ Alcotest.test_case "pack roundtrip + torn tail" `Quick
          pack_roundtrip_and_torn_tail;
        Alcotest.test_case "index roundtrip + torn tail" `Quick
          index_roundtrip_and_torn_tail;
        Alcotest.test_case "pack growth + reopen" `Quick pack_growth;
        Alcotest.test_case "pack torn tail then append" `Quick
          pack_torn_tail_then_append;
        Alcotest.test_case "pack slices" `Quick pack_slices;
        Alcotest.test_case "index hostile counts" `Quick index_hostile_counts;
        Alcotest.test_case "index version 1 rejected" `Quick
          (index_version_rejected ~version:1);
        Alcotest.test_case "committed frame flip" `Quick committed_frame_flip;
        Alcotest.test_case "gc then torn pack tail" `Quick gc_then_torn_tail;
        QCheck_alcotest.to_alcotest pack_read_many_prop;
        Alcotest.test_case "pack open allocation" `Quick pack_open_allocation;
        Alcotest.test_case "gc files pinned" `Quick gc_files_pinned;
        QCheck_alcotest.to_alcotest coded_dir_roundtrip;
        QCheck_alcotest.to_alcotest fuzz_store;
        Alcotest.test_case "index load allocation" `Quick
          index_load_allocation;
        Alcotest.test_case "index version 2 rejected" `Quick
          (index_version_rejected ~version:2);
        Alcotest.test_case "pack reload allocation" `Quick
          pack_reload_allocation;
        Alcotest.test_case "pack resolves slices" `Quick pack_resolve_slices;
        Alcotest.test_case "take stream allocation" `Quick
          take_stream_allocation;
        Alcotest.test_case "index encode allocation" `Quick
          index_encode_allocation;
        Alcotest.test_case "restore allocation" `Quick restore_allocation;
        QCheck_alcotest.to_alcotest folded_dir_roundtrip;
        Alcotest.test_case "index version 3 rejected" `Quick
          (index_version_rejected ~version:3);
        Alcotest.test_case "folded full allocation" `Quick
          folded_full_allocation ] );
    ( "store.core",
      [ Alcotest.test_case "restore agrees with chain replay" `Quick
          store_restore_agrees_with_replay;
        Alcotest.test_case "dedup: identical full is free" `Quick
          store_dedup_identical_full;
        Alcotest.test_case "dedup ratio on repeated fulls" `Quick
          store_dedup_and_stats;
        Alcotest.test_case "error paths" `Quick store_errors;
        Alcotest.test_case "misdirected directory pointer" `Quick
          store_misdirected_pointer;
        Alcotest.test_case "record past its chunk's end" `Quick
          record_past_chunk_end;
        Alcotest.test_case "reopen rejections" `Quick store_reopen_rejections;
        Alcotest.test_case "sparse huge ids" `Quick sparse_huge_ids;
        Alcotest.test_case "resume at non-zero seq" `Quick
          store_resume_at_nonzero_seq;
        Alcotest.test_case "diff matches Diff.segments" `Quick
          store_diff_matches_diff_segments;
        Alcotest.test_case "gc retention + reopen" `Quick store_gc_retention;
        Alcotest.test_case "resume equivalence" `Quick
          store_resume_equivalence;
        Alcotest.test_case "shared roots" `Quick shared_roots;
        Alcotest.test_case "unlinking heap" `Quick unlinking_heap;
        Alcotest.test_case "fold fallbacks" `Quick fold_fallbacks;
        Alcotest.test_case "fold reads" `Quick fold_reads;
        Alcotest.test_case "fold boundary" `Quick fold_boundary;
        Alcotest.test_case "fold shared key" `Quick fold_shared_key;
        Alcotest.test_case "failed full keeps the image" `Quick
          failed_full_keeps_image;
        Alcotest.test_case "stale full compared again" `Quick stale_full;
        Alcotest.test_case "growing heap" `Quick growing_heap ]
    );
    ( "store.manager",
      [ Alcotest.test_case "checkpoint lifecycle" `Quick checkpoint_lifecycle;
        Alcotest.test_case "stale temp sweep (regression)" `Quick
          stale_temp_sweep ] );
    ( "store.sweep",
      [ Alcotest.test_case "crash sweep smoke" `Slow store_sweep_smoke ] );
    ( "store.property",
      [ QCheck_alcotest.to_alcotest restore_roundtrip_prop;
        QCheck_alcotest.to_alcotest reshape_prop;
        QCheck_alcotest.to_alcotest folded_fulls_prop;
        QCheck_alcotest.to_alcotest id_index_prop ] )
  ]
