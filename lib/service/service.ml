open Ickpt_core
open Ickpt_stream
open Ickpt_cas

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let pack_path path = path ^ ".pack"

let shard_index_path path i = Printf.sprintf "%s.shard%d.idx" path i

let catalog_path path = path ^ ".tenants"

let meta_path path = path ^ ".svc"

let tenant_id name = Hash64.string name

type commit_mode = Group of Async_writer.Batch.policy

let per_epoch =
  Group { Async_writer.Batch.max_items = 1; max_bytes = max_int; linger = 0. }

type tenant = {
  t_svc : t;
  t_name : string;
  t_shard : int;
  t_chain : Epochs.chain;
}

and item = {
  it_epoch : Epochs.item;
  it_enq : int64;  (* when it was appended: {!Ickpt_harness.Clock.now_ns} *)
}

and shard_state = {
  s_index_file : string;
  mutable s_committed : Epoch_index.mux_entry list;  (* oldest first *)
  mutable s_pending : item list;  (* oldest first *)
  mutable s_pending_bytes : int;
}

and t = {
  vfs : Vfs.t;
  root : string;
  shards : int;
  records_per_chunk : int;
  policy : Policy.t;
  batch : Async_writer.Batch.policy;
  pack : Pack.t;
  lock : Mutex.t;
  shard_tbl : shard_state array;
  open_tenants : (int, tenant) Hashtbl.t;
  mutable catalog : (int * string) list;  (* oldest first *)
  mutable collided : Epochs.collision list;  (* newest first *)
  mutable commit_batches : int;
  mutable committed_epochs : int;
  mutable latencies : float list;
  mutable closed : bool;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let check_open t = if t.closed then error "service is closed"

(* ------------------------------------------------------------------ *)
(* Catalog and meta files.                                             *)

let catalog_magic = 0x544b4349 (* "ICKT" read as LE bytes *)

let meta_magic = 0x534b4349 (* "ICKS" read as LE bytes *)

let version = 1

(* One frame's bytes: catalog entries and the meta file are written one
   frame at a time. *)
let frame ~magic write =
  let d = Out_stream.create ~initial_size:64 () in
  Out_stream.framed d ~magic ~version write;
  Out_stream.contents d

let encode_catalog_entry (id, name) =
  frame ~magic:catalog_magic (fun d ->
      Out_stream.write_int d id;
      Out_stream.write_string d name)

let decode_catalog_entry =
  In_stream.framed ~magic:catalog_magic ~version ~what:"catalog" (fun inp ->
      let id = In_stream.read_int inp in
      (id, In_stream.read_string inp))

let read_catalog vfs root =
  let raw = Vfs.contents vfs (catalog_path root) in
  fst (In_stream.intact_prefix decode_catalog_entry raw)

let load_catalog vfs path =
  let raw = Vfs.contents vfs path in
  let entries, valid = In_stream.intact_prefix decode_catalog_entry raw in
  if valid < String.length raw then vfs.Vfs.truncate path ~len:valid;
  entries

let append_catalog vfs path entry =
  Vfs.write_synced vfs Append path (fun write ->
      write (encode_catalog_entry entry))

let read_meta vfs root =
  match
    In_stream.framed ~magic:meta_magic ~version ~what:"meta"
      (fun inp ->
        let shards = In_stream.read_int inp in
        (shards, In_stream.read_int inp))
      (Vfs.contents vfs (meta_path root))
      ~pos:0
  with
  | ((shards, records_per_chunk) as meta), _ ->
      if shards < 1 || shards > Shard.max_count || records_per_chunk < 1 then
        error "%s: corrupt meta (shards %d, records_per_chunk %d)"
          (meta_path root) shards records_per_chunk;
      Some meta
  | exception (In_stream.Corrupt _ | Invalid_argument _) -> None

let write_meta vfs root ~shards ~records_per_chunk =
  Vfs.write_synced vfs Trunc (meta_path root) (fun write ->
      write
        (frame ~magic:meta_magic (fun d ->
             Out_stream.write_int d shards;
             Out_stream.write_int d records_per_chunk)))

(* ------------------------------------------------------------------ *)
(* Open: sweep, truncate, validate per shard.                          *)

let open_ ?(vfs = Vfs.real) ?(shards = Shard.default_count)
    ?(records_per_chunk = Chunk.default_records_per_chunk)
    ?(policy = Policy.Full_every 8) ?(commit = per_epoch) ~path:root () =
  if shards < 1 || shards > Shard.max_count then
    invalid_arg "Service.open_: shards outside 1 .. Shard.max_count";
  if records_per_chunk < 1 then
    invalid_arg "Service.open_: records_per_chunk < 1";
  let (Group batch) = commit in
  if batch.max_items < 1 then invalid_arg "Service.open_: max_items < 1";
  if batch.max_bytes < 1 then invalid_arg "Service.open_: max_bytes < 1";
  if batch.linger <> 0. then invalid_arg "Service.open_: linger <> 0.";
  let meta = read_meta vfs root in
  let shards, records_per_chunk =
    Option.value meta ~default:(shards, records_per_chunk)
  in
  (* Every shard index is read before anything is written or cut: an older
     format is refused, and tenants dedup across shards, so the pack's
     table is built from every shard's entries before any shard is
     recovered. *)
  let loaded =
    List.init shards (fun i ->
        try Epochs.load Epochs.mux vfs (shard_index_path root i)
        with Epoch_index.Unsupported_version msg -> raise (Error msg))
  in
  if meta = None then write_meta vfs root ~shards ~records_per_chunk;
  let pack = Pack.open_ ~vfs (pack_path root) in
  let recovered = Epochs.recover Epochs.mux vfs pack loaded in
  let catalog = load_catalog vfs (catalog_path root) in
  let shard_tbl =
    Array.of_list
      (List.mapi
         (fun i (committed, _) ->
           { s_index_file = shard_index_path root i;
             s_committed = committed;
             s_pending = [];
             s_pending_bytes = 0 })
         recovered)
  in
  let t =
    { vfs;
      root;
      shards;
      records_per_chunk;
      policy;
      batch;
      pack;
      lock = Mutex.create ();
      shard_tbl;
      open_tenants = Hashtbl.create 16;
      catalog;
      collided = [];
      commit_batches = 0;
      committed_epochs = 0;
      latencies = [];
      closed = false }
  in
  t

(* ------------------------------------------------------------------ *)
(* Committing.                                                         *)

(* Commit the shard's pending items as one group ({!Epochs.commit}): one
   pack append covering every fresh chunk of every item, then one index
   write + sync — the shared commit point. Caller holds the lock. *)
let commit_locked t s =
  match s.s_pending with
  | [] -> ()
  | items ->
      s.s_pending <- [];
      s.s_pending_bytes <- 0;
      let c =
        Epochs.commit Epochs.mux t.vfs ~path:s.s_index_file t.pack
          (List.map (fun it -> it.it_epoch) items)
      in
      (* Durable: each tenant's chain has moved on; mirror the shard. *)
      s.s_committed <- s.s_committed @ c.entries;
      t.collided <- List.rev_append c.collisions t.collided;
      let now = Ickpt_harness.Clock.now_ns () in
      List.iter
        (fun it ->
          t.latencies <-
            (Int64.to_float (Int64.sub now it.it_enq) /. 1e9) :: t.latencies)
        items;
      t.commit_batches <- t.commit_batches + 1;
      t.committed_epochs <- t.committed_epochs + List.length items

let flush t =
  check_open t;
  with_lock t (fun () -> Array.iter (commit_locked t) t.shard_tbl)

(* Queue [seg] on its shard, committing the batch once full. It is
   admitted at once: the next epoch extends the taken chain. A failed
   commit sets the chain back ({!Epochs.commit}); admission is made under
   the same lock, so an epoch is never queued past a lost batch of its
   tenant's. *)
let append tenant (seg : Segment.t) =
  let t = tenant.t_svc in
  check_open t;
  (* The body is walked here, outside the lock: a malformed one is
     refused before it joins a batch. Its arrays are sized by the
     tenant's committed entries, and a full is compared with its image,
     both read without the lock: a stale list only misjudges the size,
     and a stale image is a snapshot the commit finds moved on and
     compares the full with again. *)
  let it =
    { it_epoch =
        Epochs.item tenant.t_chain ~records_per_chunk:t.records_per_chunk seg;
      it_enq = Ickpt_harness.Clock.now_ns () }
  in
  let s = t.shard_tbl.(tenant.t_shard) in
  with_lock t (fun () ->
      Option.iter (error "%s") (Epochs.admit tenant.t_chain seg);
      s.s_pending <- s.s_pending @ [ it ];
      s.s_pending_bytes <- s.s_pending_bytes + String.length seg.body;
      if
        List.length s.s_pending >= t.batch.max_items
        || s.s_pending_bytes >= t.batch.max_bytes
      then commit_locked t s);
  seg.seq

(* ------------------------------------------------------------------ *)
(* Tenants.                                                            *)

let open_tenant t schema ~name =
  check_open t;
  let id = tenant_id name in
  with_lock t (fun () ->
      match Hashtbl.find_opt t.open_tenants id with
      | Some tn ->
          if not (String.equal tn.t_name name) then
            error "tenant id collision: %S and %S hash to %s" name tn.t_name
              (Hash64.to_hex id);
          tn
      | None ->
          (match List.assoc_opt id t.catalog with
          | Some other when not (String.equal other name) ->
              error "tenant id collision: %S and %S hash to %s" name other
                (Hash64.to_hex id)
          | Some _ -> ()
          | None ->
              append_catalog t.vfs (catalog_path t.root) (id, name);
              t.catalog <- t.catalog @ [ (id, name) ]);
          let shard = Shard.of_id ~shards:t.shards id in
          let entries =
            List.filter_map
              (fun (m : Epoch_index.mux_entry) ->
                if m.m_tenant = id then Some m.m_entry else None)
              t.shard_tbl.(shard).s_committed
          in
          let tn =
            { t_svc = t;
              t_name = name;
              t_shard = shard;
              t_chain = Epochs.chain ~file:t.root ~id schema entries }
          in
          Hashtbl.replace t.open_tenants id tn;
          tn)

let checkpoint tenant roots =
  check_open tenant.t_svc;
  append tenant
    (Epochs.take tenant.t_svc.policy tenant.t_chain (Chain.generic ?stats:None)
       roots)

let epochs tenant =
  with_lock tenant.t_svc (fun () ->
      List.map
        (fun (e : Epoch_index.entry) -> e.epoch)
        (Epochs.entries tenant.t_chain))

let latest_epoch tenant =
  with_lock tenant.t_svc (fun () ->
      Epoch_index.newest (Epochs.entries tenant.t_chain))

let restore tenant ~epoch =
  let t = tenant.t_svc in
  check_open t;
  flush t;
  with_lock t (fun () ->
      let entries = Epochs.entries tenant.t_chain in
      if
        not
          (List.exists (fun (e : Epoch_index.entry) -> e.epoch = epoch) entries)
      then error "tenant %S: unknown epoch %d" tenant.t_name epoch;
      Dir.restore t.pack (Epochs.schema tenant.t_chain) ~entries ~epoch)

let evict t ~name =
  check_open t;
  flush t;
  let id = tenant_id name in
  with_lock t (fun () -> Hashtbl.remove t.open_tenants id)

let close t =
  if not t.closed then begin
    flush t;
    t.closed <- true
  end

let tenants t = with_lock t (fun () -> t.catalog)

let collisions t = with_lock t (fun () -> List.rev t.collided)

let drain_latencies t =
  with_lock t (fun () ->
      let ls = t.latencies in
      t.latencies <- [];
      ls)

(* ------------------------------------------------------------------ *)
(* Stats and integrity.                                                *)

let committed_locked t =
  Array.to_list t.shard_tbl |> List.concat_map (fun s -> s.s_committed)

let committed t = with_lock t (fun () -> committed_locked t)

let chunk_len t key =
  with_lock t (fun () ->
      if Pack.mem t.pack key then Some (Pack.chunk_len t.pack key) else None)

type stats = {
  n_tenants : int;
  n_open : int;
  n_epochs : int;
  n_chunks : int;
  logical_bytes : int;
  pack_bytes : int;
  dedup_ratio : float;
  commit_batches : int;
  committed_epochs : int;
  collisions : int;
  pack_cut_bytes : int;
}

let stats t =
  with_lock t (fun () ->
      let entries =
        List.map
          (fun (m : Epoch_index.mux_entry) -> m.m_entry)
          (committed_locked t)
      in
      let logical = Epochs.logical_bytes entries in
      let pack_bytes = Pack.physical_bytes t.pack in
      { n_tenants = List.length t.catalog;
        n_open = Hashtbl.length t.open_tenants;
        n_epochs = List.length entries;
        n_chunks = Pack.length t.pack;
        logical_bytes = logical;
        pack_bytes;
        dedup_ratio =
          (if pack_bytes = 0 then 1.0
           else float_of_int logical /. float_of_int pack_bytes);
        commit_batches = t.commit_batches;
        committed_epochs = t.committed_epochs;
        collisions = List.length t.collided;
        pack_cut_bytes = Pack.cut_bytes t.pack })

let check t =
  with_lock t (fun () ->
      let tenant_label id =
        match List.assoc_opt id t.catalog with
        | Some name -> Printf.sprintf "%S" name
        | None -> Hash64.to_hex id
      in
      List.concat
        (List.mapi
           (fun si s ->
             List.filter_map
               (fun (m : Epoch_index.mux_entry) ->
                 let home = Shard.of_id ~shards:t.shards m.m_tenant in
                 if home = si then None
                 else
                   Some
                     (Printf.sprintf
                        "tenant %s committed on shard %d, hashes to %d"
                        (tenant_label m.m_tenant) si home))
               s.s_committed
             @ Epochs.check Epochs.mux t.pack
                 ~who:(fun m -> Some ("tenant " ^ tenant_label m.m_tenant))
                 s.s_committed)
           (Array.to_list t.shard_tbl)))
