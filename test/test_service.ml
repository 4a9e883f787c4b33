(* Tests for the multi-tenant checkpoint service: shard mapping, the mux
   index wire format, cross-tenant dedup on the shared pack, group commit
   (fsync amortization + flush barrier), reopen/resume/evict, salted
   rehash on hash collision, per-tenant attribution, the QCheck
   private-store equivalence property over random tenant interleavings
   across domains, and a smoke run of the service crash sweep. *)

open Ickpt_stream
open Ickpt_runtime
open Ickpt_core
open Ickpt_faultsim
open Ickpt_cas
open Ickpt_service

let encode_mux_entry m =
  Test_util.stream_bytes (fun d -> Epoch_index.encode_mux d m)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let roots_equal a b =
  List.length a = List.length b && List.for_all2 Deep_eq.equal a b

let full_body roots =
  let d = Out_stream.create () in
  Checkpointer.full_many d roots;
  Out_stream.contents d

(* ------------------------------------------------------------------ *)
(* Worlds: deterministic per-tenant heaps. Same [offset] + same [salt]
   means byte-identical segments (per-heap object ids restart at 0), so
   tenants sharing them dedup against each other in the shared pack.    *)

type world = {
  schema : Schema.t;
  roots : Model.obj list;
  mutate : int -> unit;
}

let make_world ~offset =
  let schema = Schema.create () in
  let leaf = Schema.declare schema ~name:"Leaf" ~ints:1 ~children:0 () in
  let pair = Schema.declare schema ~name:"Pair" ~ints:2 ~children:2 () in
  let heap = Heap.create schema in
  let mk_leaf v =
    let o = Heap.alloc heap leaf in
    o.Model.ints.(0) <- v + offset;
    o
  in
  let mk_pair a b l r =
    let o = Heap.alloc heap pair in
    o.Model.ints.(0) <- a + offset;
    o.Model.ints.(1) <- b + offset;
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
    Barrier.set_int objs.(r mod n) 0 (offset + 10_000 + (3 * r));
    Barrier.set_int objs.((r + 5) mod n) 0 (offset + 10_001 + (3 * r))
  in
  { schema; roots = [ root ]; mutate }

let fresh_vfs () = Sim.vfs (Sim.create ())

(* A vfs that counts durability barriers — the fsync meter the group
   commit claims are checked against. *)
let counting_vfs inner =
  let syncs = ref 0 in
  let wrap w =
    { w with
      Vfs.sync =
        (fun () ->
          incr syncs;
          w.Vfs.sync ()) }
  in
  ( { inner with
      Vfs.open_append = (fun p -> wrap (inner.Vfs.open_append p));
      open_trunc = (fun p -> wrap (inner.Vfs.open_trunc p)) },
    syncs )

(* ------------------------------------------------------------------ *)
(* Shard mapping.                                                      *)

let shard_mapping () =
  check_bool "stable" true
    (Shard.of_name ~shards:4 "alice" = Shard.of_name ~shards:4 "alice");
  List.iter
    (fun name ->
      let s = Shard.of_name ~shards:3 name in
      check_bool "in range" true (s >= 0 && s < 3))
    [ "a"; "b"; "c"; "d"; "e" ];
  check_int "one shard" 0 (Shard.of_name ~shards:1 "anything");
  check_bool "matches id" true
    (Shard.of_name ~shards:5 "bob"
    = Shard.of_id ~shards:5 (Service.tenant_id "bob"))

(* ------------------------------------------------------------------ *)
(* Mux index wire format.                                              *)

let sample_entry i =
  { Epoch_index.epoch = i;
    kind = (if i = 0 then Segment.Full else Segment.Incremental);
    folded = false;
    size = 20;
    roots = [ 0; i ];
    chunks = [ 111 + i; 222 + i ];
    at = 100 * i;
    located = Epoch_index.code_located [ (1, 10 + i, i) ];
    dir = Epoch_index.code_dir [ [| 0; 0 |]; [| i + 1; 7 * i |] ] }

let mux_roundtrip () =
  let vfs = fresh_vfs () in
  let path = "mux.idx" in
  let ms =
    List.init 5 (fun i ->
        { Epoch_index.m_tenant = 1000 + (i mod 2); m_entry = sample_entry i })
  in
  Vfs.write_synced vfs Append path (fun write ->
      write (String.concat "" (List.map encode_mux_entry ms)));
  let empty =
    Epochs.commit Epochs.mux vfs ~path:"empty.idx"
      (Pack.open_ ~vfs "mux.pack") []
  in
  check_int "the empty batch writes nothing" 0 empty.Epochs.bytes_written;
  check_bool "nor opens the index" false (vfs.Vfs.exists "empty.idx");
  let loaded, _ = Epoch_index.load_mux vfs path in
  check_int "all entries" 5 (List.length loaded);
  List.iter2
    (fun (a : Epoch_index.mux_entry) (b : Epoch_index.mux_entry) ->
      check_bool "roundtrip" true
        (a.m_tenant = b.m_tenant
        && Test_store.entry_view a.m_entry = Test_store.entry_view b.m_entry))
    ms loaded;
  (* A torn tail cuts whole entries, never corrupts earlier ones. *)
  let raw = vfs.Vfs.read_file path in
  vfs.Vfs.truncate path ~len:(String.length raw - 3);
  let survivors, valid = Epoch_index.load_mux vfs path in
  check_int "torn tail drops exactly the last entry" 4 (List.length survivors);
  check_bool "valid offset within file" true (valid < String.length raw)

(* ------------------------------------------------------------------ *)
(* Service basics: checkpoint/restore, cross-tenant dedup, reopen.     *)

let service_basics () =
  let vfs = fresh_vfs () in
  let svc =
    Service.open_ ~vfs ~shards:2 ~records_per_chunk:4
      ~policy:(Policy.Full_every 3) ~path:"svc" ()
  in
  (* Two byte-identical tenants and one distinct one. *)
  let mk name offset =
    let w = make_world ~offset in
    (Service.open_tenant svc w.schema ~name, w)
  in
  let ta, wa = mk "alice" 0 in
  let tb, wb = mk "bob" 0 in
  let tc, wc = mk "carol" 5000 in
  let snaps = Hashtbl.create 16 in
  List.iter
    (fun (name, tn, (w : world)) ->
      for r = 0 to 5 do
        if r > 0 then w.mutate r;
        let e = Service.checkpoint tn w.roots in
        check_int "epoch numbering is per-tenant" r e;
        Hashtbl.replace snaps (name, e) (full_body w.roots)
      done)
    [ ("alice", ta, wa); ("bob", tb, wb); ("carol", tc, wc) ];
  Service.flush svc;
  (* Every epoch of every tenant restores byte-identically. *)
  List.iter
    (fun (name, tn) ->
      check_int "six epochs committed" 6 (List.length (Service.epochs tn));
      List.iter
        (fun e ->
          let _heap, roots = Service.restore tn ~epoch:e in
          check_bool
            (Printf.sprintf "%s epoch %d restores" name e)
            true
            (String.equal (full_body roots) (Hashtbl.find snaps (name, e))))
        (Service.epochs tn))
    [ ("alice", ta); ("bob", tb); ("carol", tc) ];
  check_bool "consistent" true (Service.check svc = []);
  let st = Service.stats svc in
  check_int "three tenants" 3 st.Service.n_tenants;
  check_int "18 epochs" 18 st.Service.n_epochs;
  (* alice and bob are byte-identical: their chunks dedup across tenants,
     so the pack holds well under 3 tenants' worth of bytes. *)
  (* Cross-tenant dedup: replay each tenant's (deterministic) session on a
     private store and compare pack footprints. alice and bob are
     byte-identical, so the shared pack holds ~2 tenants' chunks while the
     private packs sum to 3. *)
  let private_pack_bytes i offset =
    let w = make_world ~offset in
    let path = Printf.sprintf "priv%d" i in
    let store =
      Store.open_ ~vfs ~records_per_chunk:4 ~policy:(Policy.Full_every 3)
        w.schema ~path
    in
    for r = 0 to 5 do
      if r > 0 then w.mutate r;
      ignore (Store.checkpoint store w.roots : int)
    done;
    String.length (vfs.Vfs.read_file (Store.pack_path path))
  in
  let private_sum =
    private_pack_bytes 0 0 + private_pack_bytes 1 0 + private_pack_bytes 2 5000
  in
  let shared = String.length (vfs.Vfs.read_file (Service.pack_path "svc")) in
  check_bool
    (Printf.sprintf "cross-tenant dedup (private sum %d vs shared %d)"
       private_sum shared)
    true
    (float_of_int private_sum /. float_of_int shared > 1.3);
  (* Attribution sees the sharing. *)
  let rows = Attrib.rows svc in
  check_int "three rows" 3 (List.length rows);
  let alice = List.find (fun r -> r.Attrib.a_name = "alice") rows in
  let carol = List.find (fun r -> r.Attrib.a_name = "carol") rows in
  check_bool "alice shares with bob" true (alice.Attrib.a_shared > 0);
  check_bool "alice saved bytes" true (alice.Attrib.a_saved_bytes > 0);
  check_bool "carol owns her chunks" true
    (carol.Attrib.a_owned = carol.Attrib.a_chunks);
  Service.close svc;
  (* Reopen: resume, restore, continue. *)
  let svc2 = Service.open_ ~vfs ~path:"svc" () in
  let wa2 = make_world ~offset:0 in
  let ta2 = Service.open_tenant svc2 wa2.schema ~name:"alice" in
  check_int "resumed epochs" 6 (List.length (Service.epochs ta2));
  let _heap, roots = Service.restore ta2 ~epoch:5 in
  check_bool "resumed restore" true
    (String.equal (full_body roots) (Hashtbl.find snaps ("alice", 5)));
  List.iter (fun o -> Barrier.set_int o 0 424_242) roots;
  let e = Service.checkpoint ta2 roots in
  check_int "continues numbering" 6 e;
  Service.flush svc2;
  let _heap, roots' = Service.restore ta2 ~epoch:6 in
  check_bool "appended epoch restores" true (roots_equal roots roots');
  (* Evict drops the handle; reopening resumes. *)
  Service.evict svc2 ~name:"alice";
  let ta3 = Service.open_tenant svc2 wa2.schema ~name:"alice" in
  check_int "evict keeps disk state" 7 (List.length (Service.epochs ta3));
  Service.close svc2

(* ------------------------------------------------------------------ *)
(* Group commit: fewer fsyncs, flush as durability barrier.            *)

let run_epochs ~vfs ~commit ~tenants ~rounds =
  let svc =
    Service.open_ ~vfs ~shards:2 ~records_per_chunk:4
      ~policy:(Policy.Full_every 4) ~commit ~path:"svc" ()
  in
  let tens =
    List.init tenants (fun i ->
        let w = make_world ~offset:(i * 1000) in
        (Service.open_tenant svc w.schema ~name:(Printf.sprintf "t%d" i), w))
  in
  for r = 0 to rounds - 1 do
    List.iter
      (fun (tn, (w : world)) ->
        if r > 0 then w.mutate r;
        ignore (Service.checkpoint tn w.roots : int))
      tens
  done;
  Service.flush svc;
  let st = Service.stats svc in
  Service.close svc;
  st

let group_commit_fsyncs () =
  let vfs_a, syncs_a = counting_vfs (fresh_vfs ()) in
  let st_a =
    run_epochs ~vfs:vfs_a ~commit:Service.per_epoch ~tenants:4 ~rounds:6
  in
  let vfs_b, syncs_b = counting_vfs (fresh_vfs ()) in
  let st_b =
    run_epochs ~vfs:vfs_b
      ~commit:
        (Service.Group
           { Async_writer.Batch.max_items = 8; max_bytes = 1 lsl 20; linger = 0. })
      ~tenants:4 ~rounds:6
  in
  check_int "same epochs" st_a.Service.committed_epochs
    st_b.Service.committed_epochs;
  check_bool "per-epoch mode: one batch per epoch" true
    (st_a.Service.commit_batches = st_a.Service.committed_epochs);
  check_bool "group mode: fewer batches than epochs" true
    (st_b.Service.commit_batches * 2 <= st_b.Service.committed_epochs);
  check_bool
    (Printf.sprintf "group commit syncs less (%d vs %d)" !syncs_b !syncs_a)
    true
    (!syncs_b < !syncs_a)

let group_flush_barrier () =
  let vfs = fresh_vfs () in
  let svc =
    Service.open_ ~vfs ~shards:1 ~records_per_chunk:4
      ~commit:
        (Service.Group
           { Async_writer.Batch.max_items = 100;
             max_bytes = 1 lsl 30;
             linger = 0. })
      ~path:"svc" ()
  in
  let w = make_world ~offset:0 in
  let tn = Service.open_tenant svc w.schema ~name:"solo" in
  ignore (Service.checkpoint tn w.roots : int);
  check_int "not yet committed (pending in the group window)" 0
    (List.length (Service.epochs tn));
  Service.flush svc;
  check_int "flush commits" 1 (List.length (Service.epochs tn));
  Service.close svc

(* Batches of up to four epochs from three tenants over two shards: every
   epoch restores to its snapshot, each reports one commit latency, and
   the batches are fewer than the epochs. *)
let inline_group_mode () =
  let vfs = fresh_vfs () in
  let svc =
    Service.open_ ~vfs ~shards:2 ~records_per_chunk:4
      ~policy:(Policy.Full_every 3)
      ~commit:
        (Service.Group
           { Async_writer.Batch.max_items = 4; max_bytes = 1 lsl 20; linger = 0. })
      ~path:"svc" ()
  in
  let tens =
    List.init 3 (fun i ->
        let w = make_world ~offset:(i * 777) in
        (Service.open_tenant svc w.schema ~name:(Printf.sprintf "a%d" i), w))
  in
  let snaps = Hashtbl.create 16 in
  for r = 0 to 4 do
    List.iteri
      (fun i (tn, (w : world)) ->
        if r > 0 then w.mutate r;
        let e = Service.checkpoint tn w.roots in
        Hashtbl.replace snaps (i, e) (full_body w.roots))
      tens
  done;
  Service.flush svc;
  List.iteri
    (fun i (tn, _) ->
      check_int "all committed" 5 (List.length (Service.epochs tn));
      List.iter
        (fun e ->
          let _heap, roots = Service.restore tn ~epoch:e in
          check_bool "group-committed epoch restores" true
            (String.equal (full_body roots) (Hashtbl.find snaps (i, e))))
        (Service.epochs tn))
    tens;
  check_bool "commits grouped" true
    ((Service.stats svc).Service.commit_batches
    < (Service.stats svc).Service.committed_epochs);
  check_bool "one latency per committed epoch" true
    (List.length (Service.drain_latencies svc) = 15);
  Service.close svc

(* A policy that could never cut a batch, or that asks for a drain-thread
   wait nothing performs, is refused at open. *)
let policy_rejected () =
  let open_with p =
    Service.open_ ~vfs:(fresh_vfs ()) ~commit:(Service.Group p) ~path:"svc" ()
  in
  let ok = { Async_writer.Batch.max_items = 2; max_bytes = 64; linger = 0. } in
  List.iter
    (fun (what, p) ->
      match open_with p with
      | _ -> Alcotest.failf "%s accepted" what
      | exception Invalid_argument _ -> ())
    [ ("max_items = 0", { ok with max_items = 0 });
      ("max_bytes = 0", { ok with max_bytes = 0 });
      ("linger = 0.001", { ok with linger = 0.001 }) ];
  Service.close (open_with ok)

(* ------------------------------------------------------------------ *)
(* Salted rehash on hash collision.                                    *)

(* Poison a pack the way a 63-bit collision would have: a committed full
   epoch 0 of chain [chain] in the index [idx] names [key] over bytes that
   are not its content. *)
let seed_poison ?(chain = 0) index vfs ~pack ~idx key =
  ignore
    (Epochs.commit index vfs ~path:idx (Pack.open_ ~vfs pack)
       [ { Epochs.chain = Test_store.bare_chain ~id:chain idx;
           kind = Segment.Full;
           epoch = 0;
           roots = [];
           body = Split [ { (Chunk.of_string "poison") with key } ] } ]
      : _ Epochs.committed)

let poisoner = Service.tenant_id "poisoner"

(* [check]'s findings are exactly the seeded epoch's poisoned chunk. *)
let only_poison problems =
  match problems with
  | [ p ] -> Test_store.contains p "content does not match its key"
  | _ -> false

let store_salted_collision () =
  let vfs = fresh_vfs () in
  let w = make_world ~offset:0 in
  (* Predict the first chunk of the first full segment and poison the
     pack: same key, different bytes — a manufactured 63-bit collision. *)
  let body = full_body w.roots in
  let chunks = Chunk.split ~records_per_chunk:4 w.schema body in
  let c0 = List.hd chunks in
  seed_poison Epochs.plain vfs ~pack:(Store.pack_path "s")
    ~idx:(Store.index_path "s") c0.Chunk.key;
  let store = Store.open_ ~vfs ~records_per_chunk:4 w.schema ~path:"s" in
  let chain = Chain.create w.schema in
  let taken = Chain.take_full chain w.roots in
  let st = Store.append_segment store { taken.Chain.segment with seq = 1 } in
  check_bool "append survived the collision" true (st.Store.chunks_salted >= 1);
  let _heap, roots = Store.restore store ~epoch:1 in
  check_bool "restore is byte-identical despite the salted chunk" true
    (String.equal (full_body roots) body);
  check_bool "store checks clean but for the seeded epoch" true
    (only_poison (Store.check store));
  (match Store.collisions store with
  | [ c ] ->
      check_int "collision epoch" 1 c.Store.col_epoch;
      check_bool "content key is the poisoned one" true
        (c.Store.col_content_key = c0.Chunk.key);
      check_int "first salt rung" 1 c.Store.col_attempt;
      check_bool "stored under the salted key" true
        (c.Store.col_stored_key = Chunk.salted_key c0 ~attempt:1)
  | cs -> Alcotest.failf "expected exactly one collision, got %d" (List.length cs));
  (* Salting is detectable from disk alone, and survives reopen. *)
  check_bool "salted chunk detected on disk" true
    (Store.salted_chunks store
    = [ (Chunk.salted_key c0 ~attempt:1, 1) ]);
  let store2 = Store.open_ ~vfs ~records_per_chunk:4 w.schema ~path:"s" in
  check_bool "reopen keeps the epochs" true (Store.epochs store2 = [ 0; 1 ]);
  let _heap, roots2 = Store.restore store2 ~epoch:1 in
  check_bool "reopen restores identically" true
    (String.equal (full_body roots2) body)

let service_salted_collision () =
  let vfs = fresh_vfs () in
  let w = make_world ~offset:0 in
  let body = full_body w.roots in
  let chunks = Chunk.split ~records_per_chunk:4 w.schema body in
  let c0 = List.hd chunks in
  seed_poison Epochs.mux ~chain:poisoner vfs ~pack:(Service.pack_path "svc")
    ~idx:(Service.shard_index_path "svc" (Shard.of_id ~shards:2 poisoner))
    c0.Chunk.key;
  let svc = Service.open_ ~vfs ~shards:2 ~records_per_chunk:4 ~path:"svc" () in
  let tn = Service.open_tenant svc w.schema ~name:"victim" in
  ignore (Service.checkpoint tn w.roots : int);
  Service.flush svc;
  check_bool "collision surfaced" true (List.length (Service.collisions svc) >= 1);
  check_int "stats count it" (List.length (Service.collisions svc))
    (Service.stats svc).Service.collisions;
  let _heap, roots = Service.restore tn ~epoch:0 in
  check_bool "tenant restore unaffected" true
    (String.equal (full_body roots) body);
  check_bool "service checks clean but for the seeded epoch" true
    (only_poison (Service.check svc));
  Service.close svc

(* An ordinary write error (disk full, EIO): the op fails, the machine
   keeps running. *)
exception Io_error

(* A vfs whose writes and syncs raise [Io_error] while the returned flag
   is set — a disk that fails and then heals, within one session. *)
let breakable_vfs inner =
  let broken = ref false in
  let guard f x = if !broken then raise Io_error else f x in
  let wrap w =
    { w with Vfs.write = guard w.Vfs.write; sync = guard w.Vfs.sync }
  in
  ( { inner with
      Vfs.open_append = (fun p -> wrap (inner.Vfs.open_append p));
      open_trunc = (fun p -> wrap (inner.Vfs.open_trunc p)) },
    broken )

(* A vfs whose next [op] ("write" or "sync") on a file ending in [suffix]
   raises [Io_error] instead, once, after the returned flag is set. A
   failed sync leaves the bytes its write appended in the file, as a
   flush that fails after [close_out] wrote the buffer anyway does. *)
let fail_once inner ~suffix ~op =
  let armed = ref false in
  let wrap path (w : Vfs.writer) =
    let guard kind f x =
      if !armed && kind = op && String.ends_with ~suffix path then begin
        armed := false;
        raise Io_error
      end
      else f x
    in
    { w with Vfs.write = guard "write" w.Vfs.write; sync = guard "sync" w.Vfs.sync }
  in
  ( { inner with
      Vfs.open_append = (fun p -> wrap p (inner.Vfs.open_append p));
      open_trunc = (fun p -> wrap p (inner.Vfs.open_trunc p)) },
    armed )

(* A vfs whose next write to a file ending in [suffix], once the returned
   flag is set, lands only the first half of its bytes and then raises
   [Io_error]: a torn write, on a machine that keeps running. *)
let tear_once inner ~suffix =
  let armed = ref false in
  let wrap path (w : Vfs.writer) =
    { w with
      Vfs.write =
        (fun data ->
          if !armed && String.ends_with ~suffix path then begin
            armed := false;
            w.Vfs.write (String.sub data 0 (String.length data / 2));
            raise Io_error
          end
          else w.Vfs.write data) }
  in
  ( { inner with
      Vfs.open_append = (fun p -> wrap p (inner.Vfs.open_append p));
      open_trunc = (fun p -> wrap p (inner.Vfs.open_trunc p)) },
    armed )

(* A vfs whose next write to a file ending in [suffix], once [armed] is
   set, sets [blocked], waits until [release] is set and then raises
   [Io_error]: a failing index write that the service's lock is held over
   for as long as the caller likes. *)
let blocking_vfs inner ~suffix =
  let armed = Atomic.make false and blocked = Atomic.make false in
  let release = Atomic.make false in
  let wrap path (w : Vfs.writer) =
    { w with
      Vfs.write =
        (fun data ->
          if
            String.ends_with ~suffix path
            && Atomic.compare_and_set armed true false
          then begin
            Atomic.set blocked true;
            while not (Atomic.get release) do
              Unix.sleepf 0.001
            done;
            raise Io_error
          end
          else w.Vfs.write data) }
  in
  ( { inner with
      Vfs.open_append = (fun p -> wrap p (inner.Vfs.open_append p));
      open_trunc = (fun p -> wrap p (inner.Vfs.open_trunc p)) },
    armed,
    blocked,
    release )

(* A collision belongs to an epoch only once that epoch commits: a failed
   append (and its retries) must not report one. *)
let store_collision_after_commit () =
  let inner = fresh_vfs () in
  let w = make_world ~offset:0 in
  let c0 =
    List.hd (Chunk.split ~records_per_chunk:4 w.schema (full_body w.roots))
  in
  seed_poison Epochs.plain inner ~pack:(Store.pack_path "s")
    ~idx:(Store.index_path "s") c0.Chunk.key;
  let vfs, broken = breakable_vfs inner in
  let store = Store.open_ ~vfs ~records_per_chunk:4 w.schema ~path:"s" in
  let seg =
    { (Chain.take_full (Chain.create w.schema) w.roots).Chain.segment with
      seq = 1 }
  in
  broken := true;
  for _ = 1 to 2 do
    match Store.append_segment store seg with
    | _ -> Alcotest.fail "append on a failing disk succeeded"
    | exception Io_error ->
        check_bool "no epoch committed" true (Store.epochs store = [ 0 ]);
        check_int "no collision reported" 0
          (List.length (Store.collisions store))
  done;
  broken := false;
  ignore (Store.append_segment store seg : Store.append_stats);
  check_bool "epoch committed" true (Store.epochs store = [ 0; 1 ]);
  check_int "exactly one collision" 1 (List.length (Store.collisions store))

(* The same segments through a Store and a one-shard per-epoch Service
   tenant, both packs seeded with the same poisoned key, stage alike: the
   packs are byte-identical, the index entries equal, one collision each. *)
let store_service_stage_alike () =
  let w = make_world ~offset:0 in
  let c0 =
    List.hd (Chunk.split ~records_per_chunk:4 w.schema (full_body w.roots))
  in
  let svfs = fresh_vfs () and vvfs = fresh_vfs () in
  seed_poison Epochs.plain svfs ~pack:(Store.pack_path "s")
    ~idx:(Store.index_path "s") c0.Chunk.key;
  seed_poison Epochs.mux ~chain:poisoner vvfs ~pack:(Service.pack_path "svc")
    ~idx:(Service.shard_index_path "svc" 0) c0.Chunk.key;
  let store = Store.open_ ~vfs:svfs ~records_per_chunk:4 w.schema ~path:"s" in
  let svc =
    Service.open_ ~vfs:vvfs ~shards:1 ~records_per_chunk:4
      ~commit:Service.per_epoch ~path:"svc" ()
  in
  let tn = Service.open_tenant svc w.schema ~name:"twin" in
  let chain = Chain.create w.schema in
  for r = 0 to 12 do
    if r > 0 then w.mutate r;
    let taken =
      if r mod 5 = 0 then Chain.take_full chain w.roots
      else Chain.take_incremental chain w.roots
    in
    (* Epoch 0 is the seeded one. *)
    let seg = { taken.Chain.segment with seq = r + 1 } in
    ignore (Store.append_segment store seg : Store.append_stats);
    ignore (Service.append tn seg : int)
  done;
  check_int "store: one collision" 1 (List.length (Store.collisions store));
  check_int "service: one collision" 1 (List.length (Service.collisions svc));
  Service.close svc;
  Alcotest.(check string)
    "packs byte-identical"
    (svfs.Vfs.read_file (Store.pack_path "s"))
    (vvfs.Vfs.read_file (Service.pack_path "svc"));
  let entries, _ = Epoch_index.load svfs (Store.index_path "s") in
  let muxes, _ = Epoch_index.load_mux vvfs (Service.shard_index_path "svc" 0) in
  check_int "the seeded epoch and 13 more" 14 (List.length entries);
  check_bool "index entries equal" true
    (List.map Test_store.entry_view entries
    = List.map
        (fun (m : Epoch_index.mux_entry) -> Test_store.entry_view m.m_entry)
        muxes)

(* ------------------------------------------------------------------ *)
(* A tenant is its committed entries: misuse of [append] is a typed
   error that leaves no trace, and a tenant resumed before every
   checkpoint behaves exactly like one that never left.                 *)

let append_misuse () =
  let vfs = fresh_vfs () in
  let path = "svc" in
  let svc = Service.open_ ~vfs ~shards:1 ~records_per_chunk:4 ~path () in
  let w = make_world ~offset:0 in
  let tn = Service.open_tenant svc w.schema ~name:"solo" in
  let seg kind seq =
    { Segment.kind; seq; roots = [ 0 ]; body = full_body w.roots }
  in
  let files = [ Service.pack_path path; Service.shard_index_path path 0 ] in
  let lengths () =
    List.map (fun p -> String.length (Vfs.contents vfs p)) files
  in
  let rejected what s =
    let before = lengths () in
    (match Service.append tn s with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Service.Error _ -> ());
    Service.flush svc;
    check_bool (what ^ ": nothing submitted") true (lengths () = before)
  in
  rejected "negative seq on a new tenant" (seg Segment.Full (-1));
  rejected "baseless incremental" (seg Segment.Incremental 0);
  check_int "full base commits" 0 (Service.append tn (seg Segment.Full 0));
  Service.flush svc;
  rejected "sequence gap" (seg Segment.Incremental 2);
  check_int "next epoch commits" 1
    (Service.append tn (seg Segment.Incremental 1));
  Service.flush svc;
  check_bool "epochs 0, 1" true (Service.epochs tn = [ 0; 1 ]);
  check_bool "consistent" true (Service.check svc = []);
  Service.close svc

let resume_equivalence () =
  let path = "svc" and shards = 2 in
  let run policy ~resume =
    let vfs = fresh_vfs () in
    let svc =
      Service.open_ ~vfs ~shards ~records_per_chunk:4 ~policy ~path ()
    in
    let w = make_world ~offset:0 in
    let tn = ref (Service.open_tenant svc w.schema ~name:"t") in
    for r = 0 to 11 do
      if r > 0 then w.mutate r;
      if resume then begin
        Service.evict svc ~name:"t";
        tn := Service.open_tenant svc w.schema ~name:"t"
      end;
      check_int "epoch" r (Service.checkpoint !tn w.roots)
    done;
    Service.close svc;
    let indexes = List.init shards (Service.shard_index_path path) in
    let kinds =
      List.concat_map
        (fun idx ->
          List.map
            (fun (m : Epoch_index.mux_entry) ->
              (m.m_entry.epoch, m.m_entry.kind))
            (fst (Epoch_index.load_mux vfs idx)))
        indexes
    in
    (kinds, List.map (Vfs.contents vfs) (Service.pack_path path :: indexes))
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

(* ------------------------------------------------------------------ *)
(* Property: any interleaving of tenants across domains restores every
   tenant byte-identically to running alone on a private store.        *)

(* One deterministic session per tenant, derived from (seed, index):
   produce the segments once, submit each to BOTH the shared service and
   a private per-tenant store, then compare every epoch. *)
let interleaving_equivalent seed =
  let vfs = fresh_vfs () in
  let n_tenants = 4 in
  let svc =
    Service.open_ ~vfs ~shards:2 ~records_per_chunk:4
      ~commit:
        (Service.Group
           { Async_writer.Batch.max_items = 3; max_bytes = 1 lsl 20; linger = 0. })
      ~path:"svc" ()
  in
  let sessions =
    List.init n_tenants (fun i ->
        (* Half the tenants share an offset → cross-tenant dedup while
           the interleaving runs. *)
        let offset = if i mod 2 = 0 then 0 else 9000 + (seed mod 7) in
        let rounds = 3 + ((seed + i) mod 3) in
        let w = make_world ~offset in
        let name = Printf.sprintf "tenant%d" i in
        let tn = Service.open_tenant svc w.schema ~name in
        let priv =
          Store.open_ ~vfs ~records_per_chunk:4 w.schema
            ~path:(Printf.sprintf "priv%d" i)
        in
        let chain = Chain.create w.schema in
        (i, w, tn, priv, chain, rounds))
  in
  (* Two domains, interleaved tenant ownership; each domain drives its
     tenants' sessions concurrently with the other domain's. *)
  let run_partition part =
    List.iter
      (fun (i, (w : world), tn, priv, chain, rounds) ->
        if i mod 2 = part then
          for r = 0 to rounds - 1 do
            if r > 0 then w.mutate ((seed * 13) + r);
            let taken =
              match
                Policy.decide (Policy.Full_every 3) ~next:(Chain.next chain)
                  ~since_full_bytes:(Chain.since_full_bytes chain)
              with
              | Segment.Full -> Chain.take_full chain w.roots
              | Segment.Incremental -> Chain.take_incremental chain w.roots
            in
            ignore (Store.append_segment priv taken.Chain.segment
                    : Store.append_stats);
            ignore (Service.append tn taken.Chain.segment : int)
          done)
      sessions
  in
  let d = Domain.spawn (fun () -> run_partition 1) in
  run_partition 0;
  Domain.join d;
  Service.flush svc;
  let reader_ok =
    List.for_all
      (fun (_, _, tn, priv, _, rounds) ->
        Service.epochs tn = Store.epochs priv
        && List.length (Service.epochs tn) = rounds
        && List.for_all
             (fun e ->
               let _h, shared_roots = Service.restore tn ~epoch:e in
               let _h, private_roots = Store.restore priv ~epoch:e in
               roots_equal shared_roots private_roots
               && String.equal (full_body shared_roots)
                    (full_body private_roots))
             (Service.epochs tn))
      sessions
  in
  let clean = Service.check svc = [] in
  Service.close svc;
  reader_ok && clean

let prop_interleaving =
  QCheck2.Test.make ~name:"tenant interleaving = private store (per tenant)"
    ~count:8
    QCheck2.Gen.(int_range 0 10_000)
    interleaving_equivalent

(* ------------------------------------------------------------------ *)
(* Crash sweep smoke (the full sweep runs under @crash, like the store
   one; here a reduced-density pass with exact tallies).               *)

let sweep_smoke () =
  let r = Sweep.run ~density:1 (Service_sim.workload ~rounds:4 ()) in
  if not (Sweep.ok r) then Alcotest.failf "%a" Sweep.pp_report r;
  Alcotest.(check (pair int int))
    "exact points, runs" (70, 210) (r.Sweep.r_points, r.Sweep.r_runs)

(* ------------------------------------------------------------------ *)
(* A CRC-valid meta file with hostile values is a typed error, not a
   zero-shard service (or an Array.init crash).                        *)

let hostile_meta () =
  let path = "svc" in
  let genuine =
    let sim = Sim.create () in
    Service.close (Service.open_ ~vfs:(Sim.vfs sim) ~path ());
    List.assoc (Service.meta_path path) (Sim.durable sim)
  in
  let meta ~shards ~records_per_chunk =
    (* The genuine magic and version, hostile values, a valid CRC. *)
    let d = Out_stream.create () in
    let inp = In_stream.of_string_at genuine ~pos:0 in
    Out_stream.write_fixed32 d (In_stream.read_fixed32 inp);
    Out_stream.write_byte d (In_stream.read_byte inp);
    Out_stream.write_int d shards;
    Out_stream.write_int d records_per_chunk;
    Out_stream.write_fixed32 d (Crc32.string (Out_stream.contents d));
    Out_stream.contents d
  in
  List.iter
    (fun (shards, records_per_chunk) ->
      let sim =
        Sim.seeded [ (Service.meta_path path, meta ~shards ~records_per_chunk) ]
      in
      match Service.open_ ~vfs:(Sim.vfs sim) ~path () with
      | _ ->
          Alcotest.failf "meta with shards %d, records_per_chunk %d opened"
            shards records_per_chunk
      | exception Service.Error _ -> ())
    [ (0, 4); (-3, 4); (Shard.max_count + 1, 4); (2, 0); (2, -1) ];
  match
    Service.open_ ~vfs:(Sim.vfs (Sim.create ()))
      ~shards:(Shard.max_count + 1) ~path ()
  with
  | _ -> Alcotest.fail "open_ accepted shards above Shard.max_count"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Reopen's defensive rejections on a shard file: the entries before a
   rejected one survive for every tenant, and the file is cut at the
   rejected entry's first byte.                                         *)

let reopen_rejections () =
  let vfs = fresh_vfs () in
  let path = "svc" in
  let svc = Service.open_ ~vfs ~shards:1 ~records_per_chunk:4 ~path () in
  let tens =
    List.map
      (fun (name, offset) ->
        let w = make_world ~offset in
        (name, Service.open_tenant svc w.schema ~name, w))
      [ ("alice", 0); ("bob", 3000) ]
  in
  for r = 0 to 2 do
    List.iter
      (fun (_, tn, (w : world)) ->
        if r > 0 then w.mutate r;
        ignore (Service.checkpoint tn w.roots : int))
      tens
  done;
  Service.close svc;
  let idx = Service.shard_index_path path 0 in
  let committed = vfs.Vfs.read_file idx in
  let muxes, _ = Epoch_index.load_mux vfs idx in
  let last_of name =
    List.find
      (fun (m : Epoch_index.mux_entry) ->
        m.m_tenant = Service.tenant_id name && m.m_entry.epoch = 2)
      muxes
  in
  let alice = last_of "alice" and bob = last_of "bob" in
  let pack = Pack.open_ ~vfs (Service.pack_path path) in
  ignore
    (Pack.reload pack
       (List.map (fun (m : Epoch_index.mux_entry) -> m.m_entry) muxes)
      : int option list);
  let bad =
    Test_store.rejected_entries ~pack_bytes:(Pack.physical_bytes pack)
      alice.m_entry
  in
  List.iter
    (fun (name, entry) ->
      vfs.Vfs.truncate idx ~len:(String.length committed);
      (* Bob's next epoch, valid on its own, goes down with the cut. *)
      Test_store.append_bytes vfs idx
        (encode_mux_entry { alice with m_entry = entry }
        ^ encode_mux_entry
            { bob with m_entry = { bob.m_entry with epoch = 3 } });
      let svc = Service.open_ ~vfs ~path () in
      List.iter
        (fun (tenant, offset) ->
          let tn =
            Service.open_tenant svc (make_world ~offset).schema ~name:tenant
          in
          check_bool
            (Printf.sprintf "%s: %s keeps epochs 0..2" name tenant)
            true
            (Service.epochs tn = [ 0; 1; 2 ]))
        [ ("alice", 0); ("bob", 3000) ];
      Alcotest.(check string)
        (name ^ ": shard file cut at the bad entry")
        committed (vfs.Vfs.read_file idx);
      check_bool (name ^ ": consistent") true (Service.check svc = []);
      Service.close svc)
    bad;
  (* An offset at its chunk's end survives reopen; alice's fold refuses
     it, bob's epochs restore, and check lists it. *)
  vfs.Vfs.truncate idx ~len:(String.length committed);
  Test_store.append_bytes vfs idx
    (encode_mux_entry
       { alice with
         m_entry =
           Test_store.offset_at_chunk_end ~chunk_len:(Pack.chunk_len pack)
             alice.m_entry });
  let svc = Service.open_ ~vfs ~path () in
  let tn name offset =
    Service.open_tenant svc (make_world ~offset).schema ~name
  in
  let alice = tn "alice" 0 and bob = tn "bob" 3000 in
  check_bool "offset at chunk end: kept by reopen" true
    (Service.epochs alice = [ 0; 1; 2; 3 ]);
  (match Service.restore alice ~epoch:3 with
  | _ -> Alcotest.fail "offset at chunk end: restored"
  | exception Dir.Error _ -> ());
  ignore (Service.restore bob ~epoch:2);
  check_bool "offset at chunk end: check lists it" true
    (List.exists
       (fun e -> Test_store.contains e "out of range")
       (Service.check svc));
  Service.close svc

(* ------------------------------------------------------------------ *)
(* Index v3: an older-version service is refused untouched; random mutations
   of any service file (shard index, pack, catalog, meta) raise typed
   errors only, and what restores is what was committed.              *)

(* A two-tenant, two-shard service run for four rounds: its files and
   every tenant epoch's committed body. *)
let fuzz_fleet = [ ("alice", 0); ("bob", 3000) ]

let fuzz_service_files () =
  let vfs = fresh_vfs () in
  let svc =
    Service.open_ ~vfs ~shards:2 ~records_per_chunk:4
      ~policy:(Policy.Full_every 3) ~path:"svc" ()
  in
  let bodies = Hashtbl.create 16 in
  List.iter
    (fun (name, offset) ->
      let w = make_world ~offset in
      let tn = Service.open_tenant svc w.schema ~name in
      for r = 0 to 3 do
        if r > 0 then w.mutate r;
        let e = Service.checkpoint tn w.roots in
        Hashtbl.replace bodies (name, e) (full_body w.roots)
      done)
    fuzz_fleet;
  Service.close svc;
  let files =
    List.filter vfs.Vfs.exists
      (Service.pack_path "svc" :: Service.catalog_path "svc"
       :: Service.meta_path "svc"
       :: List.init 2 (Service.shard_index_path "svc"))
  in
  (List.map (fun p -> (p, vfs.Vfs.read_file p)) files, bodies)

let service_index_version_rejected ~version () =
  let files, _ = fuzz_service_files () in
  let vfs = Sim.vfs (Sim.seeded files) in
  let shard = Service.shard_index_path "svc" 0 in
  let muxes, _ = Epoch_index.load_mux vfs shard in
  let old =
    String.concat ""
      (List.map
         (fun (m : Epoch_index.mux_entry) ->
           Test_store.old_entry ~version ~tenant:m.m_tenant m.m_entry)
         muxes)
  in
  let w = vfs.Vfs.open_trunc shard in
  w.Vfs.write old;
  w.Vfs.sync ();
  w.Vfs.close ();
  Test_store.append_bytes vfs (Service.pack_path "svc") "ICPK\001torn";
  let before = List.map (fun (p, _) -> (p, vfs.Vfs.read_file p)) files in
  let named = Printf.sprintf "version %d" version in
  (match Service.open_ ~vfs ~path:"svc" () with
  | _ -> Alcotest.failf "opened a version-%d shard index" version
  | exception Service.Error msg ->
      if not (Test_store.contains msg named) then
        Alcotest.failf "error %S does not name %s" msg named);
  List.iter
    (fun (p, d) ->
      Alcotest.(check string) (p ^ " byte-identical") d (vfs.Vfs.read_file p))
    before

let fuzz_service =
  let files, bodies = fuzz_service_files () in
  QCheck2.Test.make ~count:300
    ~name:"fuzzed service files: typed errors only"
    QCheck2.Gen.(
      pair (int_bound (List.length files - 1)) Test_util.fuzz_ops_gen)
    (fun (which, ops) ->
      let target = fst (List.nth files which) in
      let vfs =
        Sim.vfs
          (Sim.seeded
             (List.map
                (fun (p, d) ->
                  ( p,
                    if p = target then
                      List.fold_left Test_util.apply_fuzz_op d ops
                    else d ))
                files))
      in
      let typed f =
        match f () with
        | () -> ()
        | exception
            ( Service.Error _ | Dir.Error _ | Restore.Error _
            | In_stream.Corrupt _ ) ->
            ()
      in
      (* With the catalog and meta intact (two shards), the reopen keeps
         exactly the entries, index lengths and pack length the reference
         keeps. *)
      let shard_files = List.init 2 (Service.shard_index_path "svc") in
      let expected =
        if target = Service.catalog_path "svc" || target = Service.meta_path "svc"
        then None
        else
          Some
            (Test_store.reference_recover
               ~decode:(fun s ~pos ->
                 let (m : Epoch_index.mux_entry), stop =
                   Epoch_index.decode_mux s ~pos
                 in
                 ((m.m_entry, m.m_tenant), stop))
               ~pack_size:(Test_store.file_length vfs (Service.pack_path "svc"))
               (List.map (Vfs.contents vfs) shard_files))
      in
      typed (fun () ->
          let svc = Service.open_ ~vfs ~path:"svc" () in
          Option.iter
            (fun (files, pack) ->
              let got =
                ( List.map
                    (fun (m : Epoch_index.mux_entry) ->
                      (m.m_tenant, m.m_entry.epoch))
                    (Service.committed svc),
                  List.map (Test_store.file_length vfs) shard_files,
                  Test_store.file_length vfs (Service.pack_path "svc") )
              in
              if got <> (List.concat_map fst files, List.map snd files, pack)
              then
                QCheck2.Test.fail_reportf
                  "reopen kept other entries, index or pack lengths than \
                   the reference")
            expected;
          List.iter
            (fun (name, offset) ->
              typed (fun () ->
                  let tn =
                    Service.open_tenant svc (make_world ~offset).schema ~name
                  in
                  List.iter
                    (fun epoch ->
                      typed (fun () ->
                          let _, roots = Service.restore tn ~epoch in
                          if
                            Some (full_body roots)
                            <> Hashtbl.find_opt bodies (name, epoch)
                          then
                            QCheck2.Test.fail_reportf "%s epoch %d restored wrong"
                              name epoch))
                    (Service.epochs tn)))
            fuzz_fleet;
          ignore (Service.check svc : string list));
      true)

(* [ickpt_store inspect] on a service: open it once, attribute from the
   open service, check it. Bytes appended to the pack past the committed
   length are cut by that one open's recovery, so the attribution and the
   check match the clean service's, and the open reads no pack byte. *)
let inspect_torn_pack () =
  let path = "svc" in
  let vfs = fresh_vfs () in
  let svc = Service.open_ ~vfs ~shards:2 ~records_per_chunk:4 ~path () in
  List.iter
    (fun (name, offset) ->
      let w = make_world ~offset in
      let tn = Service.open_tenant svc w.schema ~name in
      for r = 0 to 5 do
        if r > 0 then w.mutate r;
        ignore (Service.checkpoint tn w.roots : int)
      done)
    [ ("alice", 0); ("bob", 0); ("carol", 5000) ];
  Service.close svc;
  let pack = Service.pack_path path in
  let files =
    List.map
      (fun f -> (f, vfs.Vfs.read_file f))
      (pack :: Service.meta_path path :: Service.catalog_path path
       :: List.init 2 (Service.shard_index_path path))
  in
  let inspect files =
    let vfs, read =
      Test_store.counting_vfs (Sim.vfs (Sim.seeded files)) ~suffix:".pack"
    in
    let svc = Service.open_ ~vfs ~path () in
    let read_at_open = read.Test_store.bytes in
    let rows = Attrib.rows svc in
    let problems = Service.check svc in
    let cut = (Service.stats svc).Service.pack_cut_bytes in
    Service.close svc;
    (rows, problems, read_at_open, cut)
  in
  let rows, problems, read, cut = inspect files in
  check_int "three rows" 3 (List.length rows);
  check_bool "clean service consistent" true (problems = []);
  check_int "open reads no byte of a clean pack" 0 read;
  check_int "nothing cut off a clean pack" 0 cut;
  let torn =
    (pack, List.assoc pack files ^ String.make 12 '\x5a')
    :: List.remove_assoc pack files
  in
  let rows', problems', read', cut' = inspect torn in
  check_bool "same rows as on the clean service" true (rows' = rows);
  check_bool "same check as on the clean service" true (problems' = problems);
  check_int "open reads no byte of a torn pack" 0 read';
  check_int "torn tail cut and reported" 12 cut'

(* Reopening a store or a service reads no pack byte: the entries locate
   every chunk. Bytes appended past the committed length are cut exactly
   and reported. *)
let reopen_reads_no_pack_byte () =
  let w = make_world ~offset:0 in
  let inner = fresh_vfs () in
  let store = Store.open_ ~vfs:inner ~records_per_chunk:4 w.schema ~path:"s" in
  let svc =
    Service.open_ ~vfs:inner ~shards:2 ~records_per_chunk:4 ~path:"svc" ()
  in
  let tns =
    List.map
      (fun name -> Service.open_tenant svc w.schema ~name)
      [ "alice"; "bob"; "carol" ]
  in
  for r = 0 to 19 do
    if r > 0 then w.mutate r;
    ignore (Store.checkpoint store w.roots : int);
    List.iter (fun tn -> ignore (Service.checkpoint tn w.roots : int)) tns
  done;
  Service.close svc;
  let vfs, read = Test_store.counting_vfs inner ~suffix:".pack" in
  let reopen () =
    read.Test_store.bytes <- 0;
    let store = Store.open_ ~vfs w.schema ~path:"s" in
    check_int "Store.open_ reads no pack byte" 0 read.bytes;
    check_int "20 epochs" 20 (List.length (Store.epochs store));
    let svc = Service.open_ ~vfs ~path:"svc" () in
    check_int "Service.open_ reads no pack byte" 0 read.bytes;
    (store, svc)
  in
  let packs = [ Store.pack_path "s"; Service.pack_path "svc" ] in
  let committed = List.map inner.Vfs.read_file packs in
  ignore (reopen () : Store.t * Service.t);
  List.iter (fun p -> Test_store.append_bytes inner p "past the end") packs;
  let store, svc = reopen () in
  check_int "store: cut reported" 12 (Store.stats store).Store.pack_cut_bytes;
  check_int "service: cut reported" 12 (Service.stats svc).Service.pack_cut_bytes;
  List.iter2
    (fun p d -> Alcotest.(check string) (p ^ " cut exactly") d (inner.Vfs.read_file p))
    packs committed;
  check_bool "store consistent" true (Store.check store = []);
  check_bool "service consistent" true (Service.check svc = []);
  Service.close svc

(* A pack write that lands but whose sync raises: the next batch starts
   where the file ends, not where the failed batch started, so every chunk
   is located where its bytes are. The re-appended epoch restores as the
   live heap in session and after a reopen, through a store and through
   the shared pack of a service. *)
let failed_pack_sync () =
  let w = make_world ~offset:0 in
  let inner = fresh_vfs () in
  let vfs, armed = fail_once inner ~suffix:".pack" ~op:"sync" in
  let store = Store.open_ ~vfs ~records_per_chunk:4 w.schema ~path:"s" in
  let svc = Service.open_ ~vfs ~shards:2 ~records_per_chunk:4 ~path:"svc" () in
  let tn = Service.open_tenant svc w.schema ~name:"alice" in
  let fails f =
    armed := true;
    match f () with
    | _ -> Alcotest.fail "a failed pack sync committed"
    | exception Io_error -> ()
  in
  fails (fun () -> Store.checkpoint store w.roots);
  fails (fun () -> Service.checkpoint tn w.roots);
  check_bool "store: nothing committed" true (Store.epochs store = []);
  (* The tenant resumes from its committed entries: none. *)
  Service.evict svc ~name:"alice";
  let tn = Service.open_tenant svc w.schema ~name:"alice" in
  check_bool "service: nothing committed" true (Service.epochs tn = []);
  w.mutate 1;
  let live = full_body w.roots in
  check_int "store: epoch 0 again" 0 (Store.checkpoint store w.roots);
  check_int "service: epoch 0 again" 0 (Service.checkpoint tn w.roots);
  let agrees name (_, roots) =
    Alcotest.(check string) (name ^ " restores the live heap") live
      (full_body roots)
  in
  agrees "store" (Store.restore store ~epoch:0);
  agrees "service" (Service.restore tn ~epoch:0);
  check_bool "store consistent" true (Store.check store = []);
  check_bool "service consistent" true (Service.check svc = []);
  Service.close svc;
  let store = Store.open_ ~vfs:inner w.schema ~path:"s" in
  let svc = Service.open_ ~vfs:inner ~path:"svc" () in
  agrees "reopened store" (Store.restore store ~epoch:0);
  agrees "reopened service"
    (Service.restore (Service.open_tenant svc w.schema ~name:"alice") ~epoch:0);
  Service.close svc

(* The pack syncs but the index write raises; the disk heals; another
   tenant commits an epoch whose chunks are the failed batch's. Those
   chunks were located by no committed entry, so that epoch must carry
   them itself: after a reopen every committed epoch restores and the
   service checks clean. *)
let failed_index_write () =
  let inner = fresh_vfs () in
  let vfs, armed = fail_once inner ~suffix:".idx" ~op:"write" in
  let svc =
    Service.open_ ~vfs ~shards:2 ~records_per_chunk:4
      ~policy:Policy.Always_full ~path:"svc" ()
  in
  let alice_w = make_world ~offset:0 and bob_w = make_world ~offset:0 in
  let alice = Service.open_tenant svc alice_w.schema ~name:"alice" in
  let bob = Service.open_tenant svc bob_w.schema ~name:"bob" in
  ignore (Service.checkpoint alice alice_w.roots : int);
  let alice0 = full_body alice_w.roots in
  alice_w.mutate 1;
  armed := true;
  (match Service.checkpoint alice alice_w.roots with
  | _ -> Alcotest.fail "a failed index write committed"
  | exception Io_error -> ());
  bob_w.mutate 1;
  ignore (Service.checkpoint bob bob_w.roots : int);
  let bob0 = full_body bob_w.roots in
  Alcotest.(check string)
    "bob's epoch 0 is alice's failed epoch 1, chunk for chunk"
    (full_body alice_w.roots) bob0;
  let committed = [ ("alice", alice_w, alice0); ("bob", bob_w, bob0) ] in
  let restores svc =
    List.iter
      (fun (name, (w : world), body) ->
        let tn = Service.open_tenant svc w.schema ~name in
        check_bool (name ^ ": epoch 0 committed") true (Service.epochs tn = [ 0 ]);
        Alcotest.(check string) (name ^ ": epoch 0 restores") body
          (full_body (snd (Service.restore tn ~epoch:0))))
      committed;
    check_bool "consistent" true (Service.check svc = [])
  in
  restores svc;
  Service.close svc;
  let svc = Service.open_ ~vfs:inner ~path:"svc" () in
  restores svc;
  Service.close svc

(* Every epoch a chain reported durable — [(epoch, body)] — restores as
   taken, and they are all its epochs. *)
let restores_as_taken what ~epochs ~restore taken =
  Alcotest.(check (list int))
    (what ^ ": epochs") (List.rev_map fst taken) epochs;
  List.iter
    (fun (e, body) ->
      Alcotest.(check string)
        (Printf.sprintf "%s: epoch %d restores as taken" what e)
        body
        (full_body (snd (restore e))))
    taken

(* A commit whose index write raises loses its epoch, and taking that
   epoch cleared the heap's modified flags: the chain's next epoch is a
   full one, numbered right after its newest committed epoch, and an
   incremental is refused until it commits. For the service, the tenant
   sharing the shard keeps its chain, and a tenant evicted while a full is
   due still takes one when reopened. Every epoch reported durable
   restores as taken, in session and after a reopen. *)
let failed_commit_next_full () =
  let inner = fresh_vfs () in
  let vfs, armed = fail_once inner ~suffix:".idx" ~op:"write" in
  let fails what f =
    armed := true;
    match f () with
    | _ -> Alcotest.failf "%s: a failed index write committed" what
    | exception Io_error -> ()
  in
  let incremental seq =
    { Segment.kind = Segment.Incremental; seq; roots = [ 0 ]; body = "" }
  in
  (* The store. *)
  let w = make_world ~offset:0 in
  let store = Store.open_ ~vfs ~records_per_chunk:4 w.schema ~path:"s" in
  let taken = ref [] in
  let take r =
    w.mutate r;
    let e = Store.checkpoint store w.roots in
    taken := (e, full_body w.roots) :: !taken
  in
  take 0;
  w.mutate 1;
  fails "store" (fun () -> Store.checkpoint store w.roots);
  (match Store.append_segment store (incremental 1) with
  | _ -> Alcotest.fail "store: an incremental after a failed commit"
  | exception Store.Error _ -> ());
  take 2;
  take 3;
  Alcotest.(check (list bool))
    "store: full after the failed commit, then incremental" [ true; false ]
    (List.map (fun e -> Store.kind_of_epoch store e = Segment.Full) [ 1; 2 ]);
  let check_store store =
    restores_as_taken "store" ~epochs:(Store.epochs store)
      ~restore:(fun epoch -> Store.restore store ~epoch)
      !taken
  in
  check_store store;
  check_store (Store.open_ ~vfs:inner w.schema ~path:"s");
  (* The service: alice and bob share its one shard. *)
  let svc = Service.open_ ~vfs ~shards:1 ~records_per_chunk:4 ~path:"svc" () in
  let alice_w = make_world ~offset:0 and bob_w = make_world ~offset:3000 in
  let alice = ref (Service.open_tenant svc alice_w.schema ~name:"alice") in
  let bob = Service.open_tenant svc bob_w.schema ~name:"bob" in
  let alice_taken = ref [] and bob_taken = ref [] in
  let take tn (w : world) taken r =
    w.mutate r;
    let e = Service.checkpoint tn w.roots in
    taken := (e, full_body w.roots) :: !taken
  in
  take !alice alice_w alice_taken 0;
  take bob bob_w bob_taken 0;
  alice_w.mutate 1;
  fails "service" (fun () -> Service.checkpoint !alice alice_w.roots);
  (match Service.append !alice (incremental 1) with
  | _ -> Alcotest.fail "service: an incremental after a failed commit"
  | exception Service.Error _ -> ());
  take !alice alice_w alice_taken 2;
  take bob bob_w bob_taken 1;
  alice_w.mutate 3;
  fails "service" (fun () -> Service.checkpoint !alice alice_w.roots);
  Service.evict svc ~name:"alice";
  alice := Service.open_tenant svc alice_w.schema ~name:"alice";
  take !alice alice_w alice_taken 4;
  take !alice alice_w alice_taken 5;
  take bob bob_w bob_taken 2;
  let check_service svc =
    List.iter
      (fun (name, (w : world), taken) ->
        let tn = Service.open_tenant svc w.schema ~name in
        restores_as_taken name ~epochs:(Service.epochs tn)
          ~restore:(fun epoch -> Service.restore tn ~epoch)
          taken)
      [ ("alice", alice_w, !alice_taken); ("bob", bob_w, !bob_taken) ];
    check_bool "service consistent" true (Service.check svc = [])
  in
  check_service svc;
  Service.close svc;
  let svc = Service.open_ ~vfs:inner ~path:"svc" () in
  check_service svc;
  Service.close svc

(* A tenant's epoch is admitted under the lock its failed commits are
   handled under. Alice's epoch 2 commits with the lock held while its
   index write blocks, then fails; meanwhile another domain takes her
   next epoch, an incremental extending the chain as taken, and waits
   for the lock. It must be refused whatever the timing: queued, it
   would commit after the lost epoch, a gap at which a reopen cuts the
   shard file, and bob's later epochs with it. *)
let append_after_failed_commit () =
  let inner = fresh_vfs () in
  let vfs, armed, blocked, release = blocking_vfs inner ~suffix:".idx" in
  let svc = Service.open_ ~vfs ~shards:1 ~records_per_chunk:4 ~path:"svc" () in
  let alice_w = make_world ~offset:0 and bob_w = make_world ~offset:3000 in
  let alice = Service.open_tenant svc alice_w.schema ~name:"alice" in
  let bob = Service.open_tenant svc bob_w.schema ~name:"bob" in
  let alice_taken = ref [] and bob_taken = ref [] in
  let take tn (w : world) taken r =
    w.mutate r;
    let e = Service.checkpoint tn w.roots in
    taken := (e, full_body w.roots) :: !taken
  in
  take alice alice_w alice_taken 0;
  take bob bob_w bob_taken 0;
  take alice alice_w alice_taken 1;
  Atomic.set armed true;
  let failing =
    Domain.spawn (fun () ->
        alice_w.mutate 2;
        match Service.checkpoint alice alice_w.roots with
        | _ -> false
        | exception Io_error -> true)
  in
  while not (Atomic.get blocked) do
    Unix.sleepf 0.001
  done;
  let next =
    Domain.spawn (fun () ->
        alice_w.mutate 3;
        match Service.checkpoint alice alice_w.roots with
        | _ -> false
        | exception Service.Error _ -> true)
  in
  (* Time for the second domain to reach the lock. *)
  Unix.sleepf 0.05;
  Atomic.set release true;
  check_bool "the blocked commit failed" true (Domain.join failing);
  let refused = Domain.join next in
  Service.flush svc;
  Alcotest.(check (list string)) "no gap in session" [] (Service.check svc);
  check_bool "alice's next epoch refused" true refused;
  take alice alice_w alice_taken 4;
  take bob bob_w bob_taken 1;
  let check_service svc =
    List.iter
      (fun (name, (w : world), taken) ->
        let tn = Service.open_tenant svc w.schema ~name in
        restores_as_taken name ~epochs:(Service.epochs tn)
          ~restore:(fun epoch -> Service.restore tn ~epoch)
          taken)
      [ ("alice", alice_w, !alice_taken); ("bob", bob_w, !bob_taken) ];
    check_bool "service consistent" true (Service.check svc = [])
  in
  check_service svc;
  Service.close svc;
  let svc = Service.open_ ~vfs:inner ~path:"svc" () in
  check_service svc;
  Service.close svc

(* Whether a full is due belongs to the live heap, not to the store or
   service value that took the lost epoch. [steps] takes epochs 0 and 1,
   then a third whose index write fails ([Sim.Fail_at] on that write, its
   op number read off a fault-free run of the same steps). Reopened in the
   same process over the same heap, the store's (or the tenant's) next
   epoch is full and restores equal to the live heap; once it has
   committed, the next one is incremental again. *)
let full_due_across_reopen () =
  let index_write_op steps =
    let sim = Sim.create () and before = ref 0 in
    ignore (steps (Sim.vfs sim) (make_world ~offset:0) (fun () ->
                before := Sim.ops sim)
             : int);
    let op = ref (-1) in
    List.iteri
      (fun i (kind, _) -> if i >= !before && kind = "write" then op := i)
      (Sim.op_log sim);
    !op
  in
  let check_reopened what ~steps ~reopen =
    let op = index_write_op steps in
    let vfs = Sim.vfs (Sim.create ~fault:(Sim.Fail_at { op; byte = 0 }) ()) in
    let w = make_world ~offset:0 in
    (match steps vfs w ignore with
    | _ -> Alcotest.failf "%s: the failed index write committed" what
    | exception Sim.Io_error -> ());
    let epochs, take, kind, restore = reopen vfs w in
    Alcotest.(check (list int)) (what ^ ": committed epochs") [ 0; 1 ]
      (epochs ());
    List.iter
      (fun (r, expected) ->
        w.mutate r;
        let e = take () in
        check_bool
          (Printf.sprintf "%s: epoch %d is %s" what e
             (if expected = Segment.Full then "full" else "incremental"))
          true
          (kind e = expected);
        Alcotest.(check string)
          (Printf.sprintf "%s: epoch %d restores the live heap" what e)
          (full_body w.roots)
          (full_body (restore e)))
      [ (3, Segment.Full); (4, Segment.Incremental) ]
  in
  let takes take (w : world) mark =
    w.mutate 0;
    ignore (take w : int);
    w.mutate 1;
    ignore (take w : int);
    w.mutate 2;
    mark ();
    take w
  in
  check_reopened "store"
    ~steps:(fun vfs (w : world) mark ->
      let store = Store.open_ ~vfs ~records_per_chunk:4 w.schema ~path:"due" in
      takes (fun w -> Store.checkpoint store w.roots) w mark)
    ~reopen:(fun vfs w ->
      let store = Store.open_ ~vfs ~records_per_chunk:4 w.schema ~path:"due" in
      ( (fun () -> Store.epochs store),
        (fun () -> Store.checkpoint store w.roots),
        Store.kind_of_epoch store,
        fun e -> snd (Store.restore store ~epoch:e) ));
  let tenant vfs (w : world) =
    Service.open_tenant
      (Service.open_ ~vfs ~shards:1 ~records_per_chunk:4 ~path:"due-svc" ())
      w.schema ~name:"alice"
  in
  check_reopened "service"
    ~steps:(fun vfs w mark ->
      let tn = tenant vfs w in
      takes (fun w -> Service.checkpoint tn w.roots) w mark)
    ~reopen:(fun vfs w ->
      let tn = tenant vfs w in
      let kind e =
        let entry =
          List.find
            (fun (m : Epoch_index.mux_entry) -> m.m_entry.epoch = e)
            (Epoch_index.load_mux vfs (Service.shard_index_path "due-svc" 0)
            |> fst)
        in
        entry.m_entry.kind
      in
      ( (fun () -> Service.epochs tn),
        (fun () -> Service.checkpoint tn w.roots),
        kind,
        fun e -> snd (Service.restore tn ~epoch:e) ))

(* An index write that lands half an entry and then raises leaves no torn
   bytes behind: the epochs committed after it survive a reopen. *)
let torn_index_write () =
  let inner = fresh_vfs () in
  let vfs, armed = tear_once inner ~suffix:".idx" in
  let tears f =
    armed := true;
    match f () with
    | _ -> Alcotest.fail "a torn index write committed"
    | exception Io_error -> ()
  in
  let w = make_world ~offset:0 in
  let store = Store.open_ ~vfs ~records_per_chunk:4 w.schema ~path:"s" in
  let svc = Service.open_ ~vfs ~shards:1 ~records_per_chunk:4 ~path:"svc" () in
  let tw = make_world ~offset:0 in
  let tn = Service.open_tenant svc tw.schema ~name:"alice" in
  let taken = ref [] and tn_taken = ref [] in
  for r = 0 to 4 do
    w.mutate r;
    tw.mutate r;
    if r = 1 then begin
      tears (fun () -> Store.checkpoint store w.roots);
      tears (fun () -> Service.checkpoint tn tw.roots)
    end
    else begin
      let e = Store.checkpoint store w.roots in
      taken := (e, full_body w.roots) :: !taken;
      let e = Service.checkpoint tn tw.roots in
      tn_taken := (e, full_body tw.roots) :: !tn_taken
    end
  done;
  Service.close svc;
  let store = Store.open_ ~vfs:inner w.schema ~path:"s" in
  restores_as_taken "store" ~epochs:(Store.epochs store)
    ~restore:(fun epoch -> Store.restore store ~epoch)
    !taken;
  check_bool "store consistent" true (Store.check store = []);
  let svc = Service.open_ ~vfs:inner ~path:"svc" () in
  let tn = Service.open_tenant svc tw.schema ~name:"alice" in
  restores_as_taken "service" ~epochs:(Service.epochs tn)
    ~restore:(fun epoch -> Service.restore tn ~epoch)
    !tn_taken;
  check_bool "service consistent" true (Service.check svc = []);
  Service.close svc

(* On a shard where two tenants interleave, each tenant's entries share
   roots with its own previous entry, not with the other tenant's: after a
   reopen, alice's unchanged roots are one list, bob's changing ones are
   his own, and every epoch restores as taken. *)
let mux_shared_roots () =
  let vfs = fresh_vfs () in
  let svc = Service.open_ ~vfs ~shards:1 ~records_per_chunk:4 ~path:"svc" () in
  let alice_w = make_world ~offset:0 and bob_w = make_world ~offset:3000 in
  let alice = Service.open_tenant svc alice_w.schema ~name:"alice" in
  let bob = Service.open_tenant svc bob_w.schema ~name:"bob" in
  let bob_root = List.hd bob_w.roots in
  let bob_qa = Option.get bob_root.Model.children.(0) in
  let bob_roots = [| [ bob_root ]; [ bob_root; bob_qa ]; [ bob_root; bob_qa ]; [ bob_qa ] |] in
  let alice_taken = ref [] and bob_taken = ref [] in
  Array.iteri
    (fun r rs ->
      alice_w.mutate r;
      bob_w.mutate r;
      let e = Service.checkpoint alice alice_w.roots in
      alice_taken := (e, full_body alice_w.roots) :: !alice_taken;
      let e = Service.checkpoint bob rs in
      bob_taken := (e, full_body rs) :: !bob_taken)
    bob_roots;
  Service.close svc;
  let svc = Service.open_ ~vfs ~path:"svc" () in
  let roots name =
    List.filter_map
      (fun (m : Epoch_index.mux_entry) ->
        if m.m_tenant = Service.tenant_id name then Some m.m_entry.roots
        else None)
      (Service.committed svc)
  in
  let ids rs = List.map (fun o -> o.Model.info.Model.id) rs in
  let alice_roots = roots "alice" and bob_got = roots "bob" in
  check_bool "alice: her roots as taken" true
    (List.for_all (fun r -> r = ids alice_w.roots) alice_roots);
  check_bool "alice: one list" true
    (List.for_all (fun r -> r == List.hd alice_roots) alice_roots);
  check_bool "bob: his roots as taken" true
    (bob_got = Array.to_list (Array.map ids bob_roots));
  Alcotest.(check (list bool))
    "bob: shared exactly where unchanged" [ false; true; false ]
    (List.map2 ( == ) (List.tl bob_got)
       (List.filteri (fun i _ -> i < 3) bob_got));
  List.iter
    (fun (name, (w : world), taken) ->
      let tn = Service.open_tenant svc w.schema ~name in
      restores_as_taken name ~epochs:(Service.epochs tn)
        ~restore:(fun epoch -> Service.restore tn ~epoch)
        taken)
    [ ("alice", alice_w, !alice_taken); ("bob", bob_w, !bob_taken) ];
  Service.close svc

let suites =
  [ ( "service.shard",
      [ Alcotest.test_case "mapping" `Quick shard_mapping;
        Alcotest.test_case "mux index roundtrip" `Quick mux_roundtrip;
        Alcotest.test_case "reopen rejections" `Quick reopen_rejections;
        Alcotest.test_case "index version 1 rejected" `Quick
          (service_index_version_rejected ~version:1);
        QCheck_alcotest.to_alcotest fuzz_service;
        Alcotest.test_case "index version 2 rejected" `Quick
          (service_index_version_rejected ~version:2);
        Alcotest.test_case "index version 3 rejected" `Quick
          (service_index_version_rejected ~version:3) ] );
    ( "service.core",
      [ Alcotest.test_case "basics + dedup + resume" `Quick service_basics;
        Alcotest.test_case "group commit fsyncs" `Quick group_commit_fsyncs;
        Alcotest.test_case "flush barrier" `Quick group_flush_barrier;
        Alcotest.test_case "inline group commit" `Quick inline_group_mode;
        Alcotest.test_case "commit policy rejected" `Quick policy_rejected;
        Alcotest.test_case "append misuse" `Quick append_misuse;
        Alcotest.test_case "resume equivalence" `Quick resume_equivalence;
        Alcotest.test_case "inspect cuts a torn pack" `Quick
          inspect_torn_pack;
        Alcotest.test_case "reopen reads no pack byte" `Quick
          reopen_reads_no_pack_byte;
        Alcotest.test_case "failed pack sync" `Quick failed_pack_sync;
        Alcotest.test_case "failed index write" `Quick failed_index_write;
        Alcotest.test_case "failed commit: next epoch full" `Quick
          failed_commit_next_full;
        Alcotest.test_case "torn index write" `Quick torn_index_write;
        Alcotest.test_case "mux shared roots" `Quick mux_shared_roots;
        Alcotest.test_case "full due across a reopen" `Quick
          full_due_across_reopen;
        Alcotest.test_case "no append past a failed commit" `Quick
          append_after_failed_commit ] );
    ( "service.collision",
      [ Alcotest.test_case "store salted rehash" `Quick store_salted_collision;
        Alcotest.test_case "service surfaces collision" `Quick
          service_salted_collision;
        Alcotest.test_case "store records after commit" `Quick
          store_collision_after_commit;
        Alcotest.test_case "store and service stage alike" `Quick
          store_service_stage_alike ] );
    ( "service.property",
      [ QCheck_alcotest.to_alcotest prop_interleaving ] );
    ( "service.sweep",
      [ Alcotest.test_case "smoke" `Quick sweep_smoke ] );
    ( "service.meta",
      [ Alcotest.test_case "hostile values rejected" `Quick hostile_meta ] ) ]
