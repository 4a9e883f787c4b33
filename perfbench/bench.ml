(* perfbench: the end-to-end benchmark of the checkpoint pipeline.

   One run measures one workload for a given number of seconds and prints
   one JSON object as its last line of standard output.

   A run is a sequence of identical fixed-work rounds. Every round rebuilds
   its inputs from the seed, so the work of a round — and every count it
   reports — repeats exactly, and a low percentile of many rounds gives a
   steady time (see [summary]). One unreported warm-up round comes first. A
   round:

   + set-up: build the synthetic heap(s) (the paper's synthetic
     application, see [synth_config]), specialize the checkpointer if the
     workload asks for it, open a fresh store and commit each heap's base
     full epoch;
   + [epochs] times, per heap: mutate, take a checkpoint (incremental, or
     full every [full_every]-th epoch) and commit it;
   + restore evenly spaced epochs and each heap's latest one, then reopen
     the store from disk;
   + check every restored heap against an independent oracle: the latest
     epoch must be deeply equal to the live heap, and an earlier epoch must
     re-encode to the same bytes as a replay of the segment chain up to it.

   Per-layer numbers are measured from outside the program: the benchmark
   times its own calls into each layer, re-runs the chunk splitter and the
   directory fold on the same inputs as probes, and wraps the filesystem
   ({!Ickpt_core.Vfs}) to count and time writes, fsyncs and reads.

   Usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1
                    --dir DIR *)

open Ickpt_runtime
open Ickpt_core
open Ickpt_cas
module Synth = Ickpt_synth.Synth
module Service = Ickpt_service.Service
module Shard = Ickpt_service.Shard
module Out_stream = Ickpt_stream.Out_stream

let now_ms () = Int64.to_float (Ickpt_harness.Clock.now_ns ()) /. 1e6

let timed f =
  let t0 = now_ms () in
  let x = f () in
  (x, now_ms () -. t0)

(* ---- samples ------------------------------------------------------------ *)

module Samples = struct
  type t = { mutable xs : float list }

  let create () = { xs = [] }
  let add t x = t.xs <- x :: t.xs

  (* The [p]-quantile, interpolating linearly between order statistics. *)
  let quantile t p =
    let a = Array.of_list t.xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n = 0 then nan
    else
      let h = p *. float_of_int (n - 1) in
      let lo = int_of_float h in
      let hi = min (n - 1) (lo + 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

  let median t = quantile t 0.5
end

(* ---- workloads ---------------------------------------------------------- *)

type producer = Generic | Specialized

type workload = {
  name : string;
  heaps : int;  (** 1: a single-tenant {!Store}; more: {!Service} tenants *)
  structures : int;  (** compound structures per heap (26 objects each) *)
  producer : producer;  (** how incremental bodies are produced *)
  epochs : int;  (** checkpoint epochs per heap per round, after the base *)
  restores : int;  (** restores per heap per round, besides the latest *)
}

(* Two workloads that share no commit path and no checkpointer: a single
   heap committing every epoch to the store with the generic checkpointer,
   and a tenant fleet group-committing to the service with specialized
   checkpointers. The structure count is the paper's 20,000 scaled down to
   1/80 so that a round takes under a second; both workloads commit at
   least 100 epochs a round, enough for a 90th percentile with ten commits
   beyond it. *)
let workloads =
  [ { name = "incremental"; heaps = 1; structures = 250; producer = Generic;
      epochs = 100; restores = 3 };
    { name = "tenants"; heaps = 8; structures = 250; producer = Specialized;
      epochs = 15; restores = 1 } ]

(* Every [full_every]-th epoch is full, bounding the chain a restore folds:
   the service's default policy ([Policy.Full_every 8]). *)
let full_every = 8

(* Service settings for multi-heap workloads, those of [ickpt_serve run]:
   the default shard count, tenants split evenly over the shards, and the
   group commit policy of its [--commit group] mode. *)
let shards = Shard.default_count

let group_policy =
  { Async_writer.Batch.max_items = 8; max_bytes = 1 lsl 20; linger = 0. }

let reopens = 2

(* Rounds measured at the least, however short [--seconds] is. *)
let min_rounds = 4

(* Distinct tenant profiles: tenant [i] runs profile [i mod profiles], so
   tenants with one profile hold byte-identical state and dedup across
   each other in the shared pack. Eight tenants over four profiles is the
   tenant zoo of [Ablation_tenant]: two instances of each of four
   workloads. *)
let profiles = 4

(* The paper's synthetic application as Table 2 measures it: 5 lists of 5
   elements with 10 int fields each ([Synth.default_config]), one of the
   lists modifiable and 25% of its elements modified per epoch. *)
let synth_config w ~seed heap =
  { Synth.default_config with
    Synth.n_structures = w.structures;
    pct_modified = 25;
    modified_lists = 1;
    seed = Hashtbl.hash (seed, heap mod profiles) }

(* ---- filesystem probe --------------------------------------------------- *)

type io = {
  mutable syncs : int;
  sync_ms : Samples.t;
  mutable written : int;
  mutable read_bytes : int;
  mutable read_ms : float;
}

let fresh_io () =
  { syncs = 0; sync_ms = Samples.create (); written = 0; read_bytes = 0;
    read_ms = 0. }

let traced_vfs io =
  let real = Vfs.real in
  let wrap (w : Vfs.writer) =
    { Vfs.write =
        (fun s ->
          io.written <- io.written + String.length s;
          w.Vfs.write s);
      sync =
        (fun () ->
          let (), ms = timed w.Vfs.sync in
          io.syncs <- io.syncs + 1;
          Samples.add io.sync_ms ms);
      close = w.Vfs.close }
  in
  { real with
    Vfs.open_append = (fun p -> wrap (real.Vfs.open_append p));
    open_trunc = (fun p -> wrap (real.Vfs.open_trunc p));
    read_file =
      (fun p ->
        let s, ms = timed (fun () -> real.Vfs.read_file p) in
        io.read_bytes <- io.read_bytes + String.length s;
        io.read_ms <- io.read_ms +. ms;
        s) }

(* ---- storage targets ---------------------------------------------------- *)

(* The single-tenant store and the multi-tenant service behind one
   interface; heap [i] is the service's tenant [i]. *)
type target = {
  append : int -> Segment.t -> unit;
  flush : unit -> unit;
  commits : unit -> float list;
      (** milliseconds from each append to its segment being durable, for
          the segments committed since the last call *)
  restore : int -> int -> Model.obj list;
  reopen : unit -> int option list;  (** every heap's latest epoch *)
  chunks : unit -> int;
  entries : int -> Epoch_index.entry list;  (** read back from disk *)
  files : string list;
  close : unit -> unit;
}

let store_target ~vfs ~path schema =
  let store = ref (Store.open_ ~vfs schema ~path) in
  let latencies = ref [] in
  { append =
      (fun _ seg ->
        (* Durable when [append_segment] returns. *)
        let _, ms = timed (fun () -> Store.append_segment !store seg) in
        latencies := ms :: !latencies);
    flush = ignore;
    commits =
      (fun () ->
        let ls = !latencies in
        latencies := [];
        ls);
    restore = (fun _ epoch -> snd (Store.restore !store ~epoch));
    reopen =
      (fun () ->
        store := Store.open_ ~vfs schema ~path;
        [ Store.latest_epoch !store ]);
    chunks = (fun () -> (Store.stats !store).Store.n_chunks);
    entries =
      (fun _ -> fst (Epoch_index.load Vfs.real (Store.index_path path)));
    files = [ Store.pack_path path; Store.index_path path ];
    close = ignore }

(* [n] tenant names, [n / shards] on each shard. *)
let tenant_names n =
  let per = n / shards and filled = Array.make shards 0 in
  let rec go i acc k =
    if k = n then Array.of_list (List.rev acc)
    else
      let name = Printf.sprintf "tenant%03d" i in
      let s = Shard.of_name ~shards name in
      if filled.(s) < per then begin
        filled.(s) <- filled.(s) + 1;
        go (i + 1) (name :: acc) (k + 1)
      end
      else go (i + 1) acc k
  in
  go 0 [] 0

let service_target ~vfs ~path schemas =
  let names = tenant_names (Array.length schemas) in
  let commit = Service.Group group_policy in
  let open_all () =
    let svc = Service.open_ ~vfs ~shards ~commit ~path () in
    ( svc,
      Array.map2
        (fun schema name -> Service.open_tenant svc schema ~name)
        schemas names )
  in
  let st = ref (open_all ()) in
  { append = (fun i seg -> ignore (Service.append (snd !st).(i) seg : int));
    flush = (fun () -> Service.flush (fst !st));
    commits =
      (fun () ->
        List.map (fun s -> s *. 1000.) (Service.drain_latencies (fst !st)));
    restore = (fun i epoch -> snd (Service.restore (snd !st).(i) ~epoch));
    reopen =
      (fun () ->
        Service.close (fst !st);
        st := open_all ();
        Array.to_list (Array.map Service.latest_epoch (snd !st)));
    chunks = (fun () -> (Service.stats (fst !st)).Service.n_chunks);
    entries =
      (fun i ->
        let name = names.(i) in
        let file =
          Service.shard_index_path path (Shard.of_name ~shards name)
        in
        List.filter_map
          (fun (m : Epoch_index.mux_entry) ->
            if m.m_tenant = Service.tenant_id name then Some m.m_entry
            else None)
          (fst (Epoch_index.load_mux Vfs.real file)));
    files =
      Service.pack_path path :: Service.catalog_path path
      :: Service.meta_path path
      :: List.init shards (Service.shard_index_path path);
    close = (fun () -> Service.close (fst !st)) }

(* ---- heaps and checkpoints ---------------------------------------------- *)

type heap = {
  synth : Synth.t;
  roots : Model.obj list;
  root_ids : int list;
  incremental : Out_stream.t -> Model.obj list -> unit;
  mutable seq : int;
  mutable suffix : Segment.t list;  (** since the newest full, newest first *)
}

let make_heap w ~seed i =
  let synth = Synth.build (synth_config w ~seed i) in
  let roots = Synth.roots synth in
  let incremental =
    match w.producer with
    | Generic -> fun d roots -> Checkpointer.incremental_many d roots
    | Specialized ->
        let run =
          Ickpt_backend.Backend.native.Ickpt_backend.Backend.specialize
            (Jspec.Pe.specialize (Synth.shape_modified_lists synth))
        in
        fun d roots -> List.iter (run d) roots
  in
  { synth; roots; root_ids = List.map (fun o -> o.Model.info.Model.id) roots;
    incremental; seq = 0; suffix = [] }

let take h ~kind =
  let d = Out_stream.create () in
  (match kind with
  | Segment.Full -> Checkpointer.full_many d h.roots
  | Segment.Incremental -> h.incremental d h.roots);
  let seg =
    { Segment.kind; seq = h.seq; roots = h.root_ids;
      body = Out_stream.contents d }
  in
  h.seq <- h.seq + 1;
  seg

(* The canonical bytes of a heap state: a full checkpoint of it. *)
let full_body roots =
  let d = Out_stream.create () in
  Checkpointer.full_many d roots;
  Out_stream.contents d

(* ---- measurements ------------------------------------------------------- *)

(* How a metric is summarized over the rounds of a run. Every round does
   the same work, so rounds differ only by the host — and on a shared host
   the CPU speed swings by half again in phases of seconds, so a median
   over rounds follows whichever speed held for most of the run. A time is
   reported as the 10th percentile of its rounds and a rate as the 90th:
   rounds that ran at full speed, as the best round would be, but without
   resting on one round's luck. Within a round, latencies are medians or
   the stated percentile. Set-up time is the median over the rounds, as
   work moved into set-up must show however fast the host runs; counts
   are the same in every round. *)
type summary = Time | Rate | Median

type metric = { name : string; unit : string; summary : summary; value : float }

let time name value = { name; unit = "ms"; summary = Time; value }

let count name unit value = { name; unit; summary = Median; value }

type tally = { mutable attempted : int; mutable failed : int }

let remove_files files =
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) files

let file_size p = if Sys.file_exists p then (Unix.stat p).Unix.st_size else 0

(* One round. Returns its end-to-end and per-layer metrics; per-layer ones
   are measured only when tracing. Raises on an operation that fails
   outright; a wrong result counts as a failure in [tally]. *)
let round (w : workload) ~seed ~dir ~trace tally =
  let path = Filename.concat dir w.name in
  let io = fresh_io () in
  let vfs = if trace then traced_vfs io else Vfs.real in
  let attempt () = tally.attempted <- tally.attempted + 1 in
  let verify ok = if not ok then tally.failed <- tally.failed + 1 in
  let s = Samples.create in
  let ckpt = s () and restore = s () and reopen = s () in
  let mutate = s () and traverse = s () and append = s () and split = s () in
  let fold = s () and decode = s () and reopen_read = s () in
  let body_bytes = ref 0 and records = ref 0 and chunks = ref 0 in
  (* Restored epochs besides the latest: evenly spaced, so every round and
     every seed restores the same mix of distances from a full epoch. *)
  let restored =
    List.init w.restores (fun k -> ((k + 1) * w.epochs / (w.restores + 1)) - 1)
  in
  (* The segment chains of the restored epochs, replayed by the oracle
     after the checkpoints so that replaying delays no commit. *)
  let chains = Hashtbl.create 16 in
  let note h i (seg : Segment.t) =
    h.suffix <-
      (match seg.kind with Segment.Full -> [ seg ] | _ -> seg :: h.suffix);
    if List.mem seg.seq restored then
      Hashtbl.replace chains (i, seg.seq) (List.rev h.suffix, seg.roots)
  in
  let canon h i epoch =
    Option.map
      (fun (chain, roots) ->
        full_body
          (snd (Restore.of_segments h.synth.Synth.schema chain ~roots)))
      (Hashtbl.find_opt chains (i, epoch))
  in
  (* set-up *)
  let (heaps, target), setup_ms =
    timed (fun () ->
        let heaps = Array.init w.heaps (make_heap w ~seed) in
        let schemas = Array.map (fun h -> h.synth.Synth.schema) heaps in
        let target =
          if w.heaps = 1 then store_target ~vfs ~path schemas.(0)
          else service_target ~vfs ~path schemas
        in
        Array.iteri
          (fun i h ->
            let seg = take h ~kind:Segment.Full in
            target.append i seg;
            note h i seg)
          heaps;
        target.flush ();
        ignore (target.commits () : float list);
        (heaps, target))
  in
  Array.iter (fun _ -> attempt ()) heaps;
  (* checkpoints *)
  let syncs0 = io.syncs and written0 = io.written in
  let chunks0 = if trace then target.chunks () else 0 in
  for e = 1 to w.epochs do
    Array.iteri
      (fun i h ->
        let dirtied, mutate_ms = timed (fun () -> Synth.mutate_round h.synth) in
        ignore (dirtied : int);
        let kind =
          if e mod full_every = 0 then Segment.Full else Segment.Incremental
        in
        let seg, traverse_ms = timed (fun () -> take h ~kind) in
        let (), append_ms = timed (fun () -> target.append i seg) in
        attempt ();
        Samples.add ckpt (traverse_ms +. append_ms);
        note h i seg;
        if trace then begin
          let schema = h.synth.Synth.schema and body = seg.Segment.body in
          Samples.add mutate mutate_ms;
          Samples.add traverse traverse_ms;
          Samples.add append append_ms;
          let cs, split_ms = timed (fun () -> Chunk.split schema body) in
          Samples.add split split_ms;
          body_bytes := !body_bytes + String.length body;
          records := !records + List.length (Restore.scan_body schema body);
          chunks := !chunks + List.length cs
        end)
      heaps
  done;
  target.flush ();
  let commit = { Samples.xs = target.commits () } in
  let epochs = w.heaps * w.epochs in
  verify (List.length commit.Samples.xs = epochs);
  let new_chunks = if trace then target.chunks () - chunks0 else 0 in
  let epoch_syncs = io.syncs - syncs0 and epoch_written = io.written - written0 in
  (* The newest [epoch_syncs] fsyncs are the ones the checkpoints issued. *)
  let epoch_sync_ms =
    { Samples.xs = List.filteri (fun k _ -> k < epoch_syncs) io.sync_ms.xs }
  in
  let disk_bytes =
    List.fold_left (fun n p -> n + file_size p) 0 target.files
  in
  (* restores *)
  Array.iteri
    (fun i h ->
      let entries = if trace then target.entries i else [] in
      List.iter
        (fun epoch ->
          let roots, ms = timed (fun () -> target.restore i epoch) in
          attempt ();
          Samples.add restore ms;
          verify
            (if epoch = w.epochs then
               List.length roots = List.length h.roots
               && List.for_all2 Deep_eq.equal roots h.roots
             else
               match canon h i epoch with
               | Some bytes -> String.equal bytes (full_body roots)
               | None -> false);
          if trace then begin
            let _, fold_ms = timed (fun () -> Dir.fold ~entries ~epoch) in
            Samples.add fold fold_ms;
            Samples.add decode (ms -. fold_ms)
          end)
        (restored @ [ w.epochs ]))
    heaps;
  (* reopens *)
  let read_bytes0 = io.read_bytes in
  for _ = 1 to reopens do
    let read_ms0 = io.read_ms in
    let latest, ms = timed target.reopen in
    attempt ();
    Samples.add reopen ms;
    verify (List.for_all (fun l -> l = Some w.epochs) latest);
    Samples.add reopen_read (io.read_ms -. read_ms0)
  done;
  let reopen_read_bytes = io.read_bytes - read_bytes0 in
  target.close ();
  remove_files target.files;
  let per_epoch n = float_of_int n /. float_of_int epochs in
  let ckpt_total_s = List.fold_left ( +. ) 0. ckpt.Samples.xs /. 1000. in
  let end_to_end =
    [ time "ckpt_ms" (Samples.median ckpt);
      time "commit_ms" (Samples.median commit);
      time "commit_p90_ms" (Samples.quantile commit 0.9);
      { name = "epochs_per_s"; unit = "1/s"; summary = Rate;
        value = float_of_int epochs /. ckpt_total_s };
      time "restore_ms" (Samples.median restore);
      time "reopen_ms" (Samples.median reopen);
      count "disk_bytes_per_epoch" "B"
        (float_of_int disk_bytes /. float_of_int (w.heaps * (w.epochs + 1)));
      { name = "setup_s"; unit = "s"; summary = Median;
        value = setup_ms /. 1000. }
    ]
  in
  let per_layer =
    if not trace then []
    else
      [ time "mutate_ms" (Samples.median mutate);
        time "traverse_ms" (Samples.median traverse);
        time "append_ms" (Samples.median append);
        time "split_ms" (Samples.median split);
        time "fsync_ms" (Samples.median epoch_sync_ms);
        count "fsyncs_per_epoch" "count" (per_epoch epoch_syncs);
        count "write_bytes_per_epoch" "B" (per_epoch epoch_written);
        count "body_bytes_per_epoch" "B" (per_epoch !body_bytes);
        count "records_per_epoch" "count" (per_epoch !records);
        count "chunks_per_epoch" "count" (per_epoch !chunks);
        count "new_chunks_per_epoch" "count" (per_epoch new_chunks);
        count "dedup_hit_pct" "%"
          (100. *. float_of_int (!chunks - new_chunks)
          /. float_of_int (max 1 !chunks));
        time "restore_fold_ms" (Samples.median fold);
        time "restore_decode_ms" (Samples.median decode);
        time "reopen_read_ms" (Samples.median reopen_read);
        count "reopen_read_bytes" "B"
          (float_of_int reopen_read_bytes /. float_of_int reopens) ]
  in
  (end_to_end, per_layer)

(* ---- output ------------------------------------------------------------- *)

(* One value per metric over the run's rounds (see {!summary}). *)
let summarize rounds =
  match rounds with
  | [] -> []
  | first :: _ ->
      List.map
        (fun m ->
          let xs =
            { Samples.xs =
                List.map
                  (fun r -> (List.find (fun m' -> m'.name = m.name) r).value)
                  rounds }
          in
          let value =
            match m.summary with
            | Time -> Samples.quantile xs 0.1
            | Rate -> Samples.quantile xs 0.9
            | Median -> Samples.median xs
          in
          { m with value })
        first

let emit ~correct tally metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (Printf.sprintf "%.17g" m.value) m.unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tally.attempted tally.failed body

(* ---- main --------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     --dir DIR";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | key :: value :: rest
      when String.length key > 2 && String.sub key 0 2 = "--" ->
        Hashtbl.replace args (String.sub key 2 (String.length key - 2)) value;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k =
    match Hashtbl.find_opt args k with Some v -> v | None -> usage ()
  in
  let int_arg k =
    match int_of_string_opt (get k) with Some n -> n | None -> usage ()
  in
  let w =
    let name = get "workload" in
    match List.find_opt (fun (w : workload) -> w.name = name) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" name
          (String.concat ", "
             (List.map (fun (w : workload) -> w.name) workloads));
        exit 2
  in
  let seed = int_arg "seed" and seconds = float_of_int (int_arg "seconds") in
  let trace = int_arg "trace" <> 0 and dir = get "dir" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let tally = { attempted = 0; failed = 0 } in
  let run () =
    (* Every round starts from a compacted OCaml heap, so rounds are alike. *)
    Gc.compact ();
    match round w ~seed ~dir ~trace tally with
    | r -> Some r
    | exception e ->
        Printf.eprintf "round failed: %s\n%!" (Printexc.to_string e);
        tally.failed <- tally.failed + 1;
        None
  in
  (* Warm-up: fills the page cache and grows the OCaml heap; its results
     are checked but its timings are not reported. *)
  let warm = run () in
  let t0 = now_ms () in
  let rec loop acc =
    if
      warm = None
      || (List.length acc >= min_rounds && now_ms () -. t0 >= seconds *. 1000.)
    then List.rev acc
    else match run () with Some r -> loop (r :: acc) | None -> List.rev acc
  in
  let rounds = loop [] in
  Printf.eprintf "%s: %d round(s) in %.1f s\n%!" w.name (List.length rounds)
    ((now_ms () -. t0) /. 1000.);
  let correct = warm <> None && rounds <> [] && tally.failed = 0 in
  emit ~correct tally
    (summarize (List.map (fun (e2e, layers) -> if trace then layers else e2e) rounds))
