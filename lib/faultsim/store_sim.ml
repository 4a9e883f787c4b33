open Ickpt_core
open Ickpt_runtime
open Ickpt_cas

let store_path = "ckpt.store"

(* -- The deterministic workload ----------------------------------------- *)

(* Tiny chunks so a single epoch spans several of them and crash points
   land inside multi-chunk pack appends. *)
let records_per_chunk = 3

let open_store ~vfs schema =
  Store.open_ ~vfs ~records_per_chunk ~policy:(Policy.Full_every 3) schema
    ~path:store_path

(* An I/O error loses the checkpoint or gc it hits; the run goes on. The
   gc after round 3 keeps only epoch 3, a full one, so it drops epochs
   0-2 and stages, renames and finishes both files. *)
let run_workload ~rounds vfs ~commit ~base =
  let w = Sweep.world ~offset:0 in
  let store = open_store ~vfs w.schema in
  let io f = try f () with Sim.Io_error -> () in
  let checkpoint () =
    io (fun () ->
        let epoch = Store.checkpoint store w.roots in
        commit (epoch, Sweep.snapshot w))
  in
  checkpoint ();
  base ();
  for r = 1 to rounds do
    w.mutate r;
    checkpoint ();
    if r = 3 then
      io (fun () -> ignore (Store.gc store ~retain:(Store.Keep_last 1)))
  done

(* -- The invariant check ------------------------------------------------- *)

(* Resume on the survived store: one more checkpoint must itself be
   restorable. Exercises the counters a reopen derives from the
   post-crash entries. *)
let second_life ~vfs ~schema =
  match
    let store = open_store ~vfs schema in
    let latest () =
      snd (Store.restore store ~epoch:(Option.get (Store.latest_epoch store)))
    in
    let roots = latest () in
    List.iter (fun o -> Barrier.set_int o 0 999_983) roots;
    ignore (Store.checkpoint store roots : int);
    Sweep.roots_equal roots (latest ())
  with
  | exception e ->
      Error ("post-recovery checkpoint raised " ^ Printexc.to_string e)
  | false -> Error "checkpoint appended after recovery is not restorable"
  | true -> Ok ()

let check_recovery vfs ~exact snapshots =
  let schema = (Sweep.world ~offset:0).schema in
  match open_store ~vfs schema with
  | exception e -> Error ("Store.open_ raised " ^ Printexc.to_string e)
  | store -> (
      match Store.check store with
      | _ :: _ as errs -> Error ("Store.check: " ^ String.concat "; " errs)
      | [] -> (
          match Store.epochs store with
          | [] -> Error "no committed epoch survived"
          | epochs ->
              let restore epoch = snd (Store.restore store ~epoch) in
              Result.bind (Sweep.check_epochs ~exact ~restore snapshots epochs)
                (fun () -> second_life ~vfs ~schema)))

let workload ?(rounds = 5) () =
  { Sweep.label = "store";
    seed = [];
    run = run_workload ~rounds;
    check = check_recovery }
