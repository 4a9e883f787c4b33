open Ickpt_runtime
open Ickpt_core
open Ickpt_harness
open Ickpt_cas
open Ickpt_analysis

let name = "dedup"

let title =
  "Dedup-store ablation: chunk dedup and O(live) epoch restore vs chain \
   replay (extension)"

type row = {
  workload : string;
  epochs : int;
  chunks : int;
  logical_bytes : int;
  physical_bytes : int;
  dedup_ratio : float;
  target_epoch : int;
  replay_seconds : float;
  store_seconds : float;
  speedup : float;
  states_equal : bool;
}

(* ---- shared measurement ------------------------------------------------- *)

(* Store every segment of the chain, then materialize [target] both ways. *)
let row_of_chain ?(repeats = 3) ~workload ~target chain =
  let schema = Chain.schema chain in
  let segs = Chain.segments chain in
  Workload.with_store schema ("dedup_" ^ workload) (fun store ->
      List.iter (fun s -> ignore (Store.append_segment store s)) segs;
      let s = Store.stats store in
      let target = max 0 (min target (List.length segs - 1)) in
      let tseg = List.find (fun (x : Segment.t) -> x.seq = target) segs in
      (* The best a chain replay can do for an arbitrary epoch: the
         suffix from the newest full at or before it. Under
         incremental-after-base that suffix is the entire prefix — replay
         cost grows with run length, which is what the epoch index
         removes. *)
      let replay = Chain.since_full chain ~epoch:target in
      let (rh, replayed), replay_seconds =
        Clock.best_of ~repeats (fun () ->
            Restore.of_segments schema replay ~roots:tseg.Segment.roots)
      in
      ignore rh;
      let (sh, stored), store_seconds =
        Clock.best_of ~repeats (fun () -> Store.restore store ~epoch:target)
      in
      ignore sh;
      { workload;
        epochs = s.Store.n_epochs;
        chunks = s.Store.n_chunks;
        logical_bytes = s.Store.logical_bytes;
        physical_bytes = s.Store.physical_bytes;
        dedup_ratio = s.Store.dedup_ratio;
        target_epoch = target;
        replay_seconds;
        store_seconds;
        speedup = replay_seconds /. store_seconds;
        states_equal =
          Ickpt_faultsim.Sweep.roots_equal replayed stored
          && String.equal (Workload.full_body replayed)
               (Workload.full_body stored) })

(* ---- engine workloads (full-checkpointing mode) ------------------------- *)

let measure_engine ?repeats workloads =
  List.map
    (fun (wname, program) ->
      let report =
        Engine.analyze
          (Engine.Declared { Engine.declared with mode = Engine.Full })
          program
      in
      let chain = report.Engine.chain in
      let target = (Chain.length chain - 1) / 2 in
      row_of_chain ?repeats ~workload:wname ~target chain)
    workloads

(* ---- the long pagerank-style run ---------------------------------------- *)

(* The examples/pagerank.ml dynamics, shrunk: flat Page objects, topology
   as scalar ids, change-detecting score writes. A rotating "teleport
   bonus" keeps a slice of pages changing every round, so incremental
   epochs never dry up and chain replay cost genuinely grows with run
   length. *)
let max_links = 4

let slot_score = 0
let slot_degree = 1
let slot_bonus = 2
let slot_link k = 3 + k

let measure_pagerank ?(repeats = 3) ?(epochs = 120) ?(pages = 300) () =
  if epochs < 2 then invalid_arg "measure_pagerank: epochs";
  let schema = Schema.create () in
  let page =
    Schema.declare schema ~name:"Page" ~ints:(3 + max_links) ~children:0 ()
  in
  let heap = Heap.create schema in
  let rng = Random.State.make [| 0x5eed5 |] in
  let ps = Array.init pages (fun _ -> Heap.alloc heap page) in
  Array.iteri
    (fun i p ->
      let degree = 1 + Random.State.int rng max_links in
      Barrier.set_int p slot_score 1000;
      Barrier.set_int p slot_degree degree;
      Barrier.set_int p slot_bonus 0;
      for k = 0 to degree - 1 do
        let target = (i + 1 + Random.State.int rng (pages - 1)) mod pages in
        Barrier.set_int p (slot_link k) ps.(target).Model.info.Model.id
      done)
    ps;
  let by_id = Hashtbl.create pages in
  Array.iter (fun p -> Hashtbl.replace by_id p.Model.info.Model.id p) ps;
  let sweep r =
    (* One damping iteration plus the rotating teleport slice. *)
    let incoming = Array.make pages 0 in
    Array.iteri
      (fun i p ->
        ignore i;
        let d = p.Model.ints.(slot_degree) in
        let share = p.Model.ints.(slot_score) / d in
        for k = 0 to d - 1 do
          let t = Hashtbl.find by_id p.Model.ints.(slot_link k) in
          let ti = t.Model.info.Model.id - ps.(0).Model.info.Model.id in
          incoming.(ti) <- incoming.(ti) + share
        done)
      ps;
    let slice = max 1 (pages / 10) in
    Array.iteri
      (fun i p ->
        let bonus = if (i + r) mod (pages / slice) = 0 then 100 + r else 0 in
        ignore (Barrier.set_int_if_changed p slot_bonus bonus);
        ignore
          (Barrier.set_int_if_changed p slot_score
             (150 + (850 * incoming.(i) / 1000) + bonus)))
      ps
  in
  let roots = Array.to_list ps in
  let chain = Chain.create schema in
  ignore (Chain.take_full chain roots);
  for r = 1 to epochs - 1 do
    sweep r;
    ignore (Chain.take_incremental chain roots)
  done;
  row_of_chain ~repeats ~workload:"pagerank" ~target:(epochs - 10) chain

(* ---- checks + document ------------------------------------------------- *)

let long_epochs = 100

let checks rows =
  let open Workload in
  let engine_rows = List.filter (fun r -> r.workload <> "pagerank") rows in
  let long_rows = List.filter (fun r -> r.epochs >= long_epochs) rows in
  [ check ~label:"dedup: store and replay restores agree"
      ~ok:(List.for_all (fun r -> r.states_equal) rows)
      ~detail:
        "every row's target epoch materializes to byte-identical heaps \
         through the store and through chain replay";
    check ~label:"dedup: ratio > 1.5x on a full-checkpointing workload"
      ~ok:(List.exists (fun r -> r.dedup_ratio > 1.5) engine_rows)
      ~detail:
        "repeated full epochs share most record-aligned chunks, so the \
         pack holds them once";
    check ~label:"dedup: store restore beats chain replay on 100+ epochs"
      ~ok:(List.for_all (fun r -> r.speedup > 1.0) long_rows)
      ~detail:
        "the epoch index folds per-object directories instead of \
         decoding every record of every prior segment"
    |> requires (long_rows <> [])
         ~reason:
           (Printf.sprintf "needs a row with >= %d epochs; the longest has %d"
              long_epochs
              (List.fold_left (fun m r -> max m r.epochs) 0 rows)) ]

let columns =
  Bench_doc.
    [ column ~head:"workload" "workload" (fun r -> String r.workload);
      column ~head:"epochs" "epochs" (fun r -> Int r.epochs);
      column "chunks" (fun r -> Int r.chunks);
      column ~head:"logical" "logical_bytes" (fun r -> Bytes r.logical_bytes);
      column ~head:"on-disk" "physical_bytes" (fun r -> Bytes r.physical_bytes);
      column ~head:"dedup" "dedup_ratio" (fun r -> Ratio r.dedup_ratio);
      column ~head:"restore@" "target_epoch" (fun r -> Int r.target_epoch);
      column ~head:"replay" "replay_seconds" (fun r ->
          Seconds (9, r.replay_seconds));
      column ~head:"store" "store_seconds" (fun r ->
          Seconds (9, r.store_seconds));
      column ~head:"speedup" "speedup" (fun r -> Ratio r.speedup);
      column "states_equal" (fun r -> Bool r.states_equal) ]

let doc rows =
  Bench_doc.make ~bench:"dedup-store ablation" ~title
    ~unit:"bytes; seconds (best-of-repeats per restore)" columns rows
    (checks rows)

let run ~scale ppf =
  let repeats = if scale >= 1.0 then 5 else 3 in
  let epochs = max 12 (int_of_float (120.0 *. scale)) in
  let pages = max 40 (int_of_float (300.0 *. scale)) in
  Bench_doc.print_table ppf
    (doc
       (measure_engine ~repeats (Workload.generator_programs ())
       @ [ measure_pagerank ~repeats ~epochs ~pages () ]))
