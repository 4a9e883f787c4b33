open Ickpt_runtime

type external_sink = {
  sink_append : Segment.t -> unit;
  sink_resume : unit -> Segment.t list;
  sink_compact : (unit -> unit) option;
}

type sink = Sync | Async of Async_writer.t | External of external_sink

type t = {
  schema : Schema.t;
  path : string;
  vfs : Vfs.t;
  policy : Policy.t;
  compact_above : int;
  mutable chain : Chain.t;
  mutable sink : sink;
  mutable closed : bool;
}

let create ?(vfs = Vfs.real) ?(policy = Policy.Incremental_after_base)
    ?(async = false) ?(compact_above = 0) ?sink schema ~path =
  (* A crash between staging a compacted log and renaming it over [path]
     leaves the staged temp behind; it holds no committed data, so reopen
     is where it gets swept. *)
  let tmp = Storage.temp_of ~path in
  if vfs.Vfs.exists tmp then vfs.Vfs.remove tmp;
  let chain = Chain.create schema in
  let sink =
    match sink with
    | Some ext ->
        (* A store-backed manager: the external sink owns persistence, the
           log file at [path] is not touched. Appends through an external
           sink are synchronous (the store syncs per epoch), so [async] is
           ignored. *)
        List.iter (Chain.append chain) (ext.sink_resume ());
        External ext
    | None ->
        let { Storage.segments; torn_tail; bytes_read } =
          Storage.load ~vfs path
        in
        (* A torn tail means garbage bytes follow the intact prefix. Cut
           them off before the first append: appending after the garbage
           would make every subsequent segment unreachable on reload (the
           loader stops at the first undecodable byte and cannot resync). *)
        if torn_tail then vfs.Vfs.truncate path ~len:bytes_read;
        List.iter (Chain.append chain) segments;
        if async then Async (Async_writer.create ~vfs ~path ()) else Sync
  in
  { schema; path; vfs; policy; compact_above; chain; sink; closed = false }

let chain t = t.chain

let segments_on_disk t = Chain.length t.chain

let persist t seg =
  match t.sink with
  | Sync -> Storage.append ~vfs:t.vfs ~path:t.path seg
  | Async w -> Async_writer.enqueue w seg
  | External ext -> ext.sink_append seg

let flush t =
  match t.sink with Sync | External _ -> () | Async w -> Async_writer.flush w

let compact_now t =
  flush t;
  match t.sink with
  | External ext ->
      (* The store keeps epoch numbering stable across compaction, so the
         chain is NOT renumbered; compaction is the sink's GC (if it has
         one), and the chain is re-resumed from what survives. *)
      (match ext.sink_compact with None -> () | Some gc -> gc ());
      let chain = Chain.create t.schema in
      List.iter (Chain.append chain) (ext.sink_resume ());
      t.chain <- chain
  | Sync | Async _ ->
      Chain.compact t.chain;
      (* Rewrite the log to the single compacted segment. The async writer
         (if any) is recreated so its file offset agrees with the
         truncation. *)
      (match t.sink with
      | Sync | External _ -> ()
      | Async w -> Async_writer.close w);
      Storage.write_chain ~vfs:t.vfs ~path:t.path t.chain;
      (match t.sink with
      | Sync | External _ -> ()
      | Async _ ->
          t.sink <- Async (Async_writer.create ~vfs:t.vfs ~path:t.path ()))

let maybe_compact t =
  match t.sink with
  | External _ ->
      (* Auto-compaction renumbers the chain from 0, which would desync the
         store's epoch numbering — store-backed managers compact only on an
         explicit [compact_now]. *)
      ()
  | Sync | Async _ ->
      if t.compact_above > 0 && Chain.length t.chain > t.compact_above then
        compact_now t

let check_open t = if t.closed then failwith "Manager: closed"

(* One checkpoint of the policy's kind, its body written by [write kind]. *)
let take t roots write =
  check_open t;
  let kind =
    Policy.decide t.policy ~next:(Chain.next t.chain)
      ~since_full_bytes:(Chain.since_full_bytes t.chain)
  in
  let seg =
    Chain.segment ~kind ~seq:(Chain.next_seq t.chain) (write kind) roots
  in
  Chain.append t.chain seg;
  persist t seg;
  maybe_compact t;
  seg

let checkpoint t roots =
  let stats = Checkpointer.fresh_stats () in
  let segment = take t roots (Chain.generic ~stats) in
  { Chain.segment; stats }

let checkpoint_with t roots ~body =
  take t roots (function
    | Segment.Full -> Chain.generic Segment.Full
    | Segment.Incremental -> body)

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.sink with
    | Sync | External _ -> ()
    | Async w -> Async_writer.close w
  end

let recover_latest ?vfs schema ~path =
  let chain, _torn = Storage.load_chain ?vfs schema ~path in
  Chain.recover chain
