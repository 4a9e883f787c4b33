(* Crash recovery end-to-end: run the analysis engine with per-iteration
   incremental checkpoints committed to a store, kill it mid-run (we
   simulate the crash by tearing the tail of the store's epoch index, as
   a power loss during the last commit would), then restart: reopen the
   store, which cuts the torn entry, restore the newest surviving epoch
   and verify the recovered annotations.

   Run with: dune exec examples/crash_recovery.exe *)

open Ickpt_cas
open Ickpt_analysis

let path = Filename.concat (Filename.get_temp_dir_name ()) "analysis.ckpt"

let file_size file =
  let ic = open_in_bin file in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> in_channel_length ic)

let () =
  let files = [ Store.pack_path path; Store.index_path path ] in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) files;
  let program = Minic.Gen.image_program ~n_filters:6 () in
  let env = Minic.Check.check program in

  (* Phase 1: the "first life". Run SEA + BTA, committing every
     checkpoint as it is taken: a full one every 8 epochs, incremental
     ones between. *)
  let attrs = Attrs.create ~n_stmts:(Minic.Ast.stmt_count program) in
  let schema = Attrs.schema attrs in
  let policy = Ickpt_core.Policy.Full_every 8 in
  let store = Store.open_ ~policy schema ~path in
  let checkpoint _i = ignore (Store.checkpoint store (Attrs.roots attrs)) in
  checkpoint 0;
  ignore (Sea.run ~on_iteration:checkpoint env attrs);
  ignore
    (Bta_phase.run ~on_iteration:checkpoint ~min_iterations:5
       ~division:Minic.Gen.static_globals env attrs);
  let epochs_written = List.length (Store.epochs store) in
  Format.printf
    "first life: committed %d epochs (%d bytes of pack, %d of index)@."
    epochs_written
    (file_size (Store.pack_path path))
    (file_size (Store.index_path path));

  (* The crash: the process dies while committing the final epoch.
     Simulate by chopping the last 10 bytes off the index. *)
  let index = Store.index_path path in
  Unix.truncate index (file_size index - 10);
  Format.printf "simulated crash: tore the tail of the epoch index@.";

  (* Phase 2: the "second life". Reopen: the torn entry is detected and
     cut, every epoch before it restores. *)
  let store = Store.open_ ~policy schema ~path in
  let epochs = Store.epochs store in
  Format.printf "restart: %d committed epochs survive@." (List.length epochs);
  assert (List.length epochs = epochs_written - 1);
  assert (Store.check store = []);
  let latest = Option.get (Store.latest_epoch store) in
  let heap', roots' = Store.restore store ~epoch:latest in
  Format.printf "restored epoch %d: %d objects, %d attribute roots@." latest
    (Ickpt_runtime.Heap.count heap')
    (List.length roots');
  (* The recovered state is exactly the state at the second-to-last
     checkpoint: the BT annotation of statement 0 is present. *)
  let attr0 = List.hd roots' in
  let bt =
    match attr0.Ickpt_runtime.Model.children.(1) with
    | Some btentry -> (
        match btentry.Ickpt_runtime.Model.children.(0) with
        | Some bt -> bt.Ickpt_runtime.Model.ints.(0)
        | None -> assert false)
    | None -> assert false
  in
  Format.printf "statement 0 binding time after recovery: %s@."
    (if bt = Attrs.bt_static then "static"
     else if bt = Attrs.bt_dynamic then "dynamic"
     else "unknown");

  (* Housekeeping: keep only the newest epoch (widened down to its full
     base) and the chunks it references. *)
  let g = Store.gc store ~retain:(Store.Keep_last 1) in
  Format.printf "gc: dropped %d epochs and %d chunks, %d epoch(s) left@."
    g.Store.dropped_epochs g.Store.dropped_chunks
    (List.length (Store.epochs store));
  List.iter Sys.remove files
