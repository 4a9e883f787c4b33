open Ickpt_core
open Ickpt_runtime
open Ickpt_cas

let store_path = "ckpt.store"

(* -- The deterministic workload ----------------------------------------- *)

(* Tiny chunks so a single epoch spans several of them and crash points
   land inside multi-chunk pack appends. *)
let records_per_chunk = 3

(* Committed state of an epoch, captured on the fault-free run by
   materializing from the manager's chain (a fresh heap, immune to later
   mutation of the live one). *)
let snapshot m =
  match Chain.recover (Manager.chain m) with
  | Ok (_heap, roots) -> (Chain.next_seq (Manager.chain m) - 1, roots)
  | Error e -> failwith ("store_sim: reference recovery failed: " ^ e)

let run_workload ~rounds vfs ~commit ~base =
  let w = Sweep.world ~offset:0 in
  let store = Store.open_ ~vfs ~records_per_chunk w.schema ~path:store_path in
  let m =
    Manager.create ~vfs ~policy:(Policy.Full_every 3)
      ~sink:(Store.manager_sink store) w.schema ~path:store_path
  in
  ignore (Manager.checkpoint m w.roots);
  commit (snapshot m);
  base ();
  for r = 1 to rounds do
    w.mutate r;
    ignore (Manager.checkpoint m w.roots);
    commit (snapshot m);
    if r = 3 then ignore (Store.gc store ~retain:(Store.Keep_last 3))
  done

(* -- The invariant check ------------------------------------------------- *)

(* Resume on the survived store: one more checkpoint must itself be
   restorable. Exercises sink_resume on a post-crash store. *)
let second_life ~vfs ~schema =
  match
    let store = Store.open_ ~vfs ~records_per_chunk schema ~path:store_path in
    let latest () =
      snd (Store.restore store ~epoch:(Option.get (Store.latest_epoch store)))
    in
    let roots = latest () in
    let m =
      Manager.create ~vfs ~sink:(Store.manager_sink store) schema
        ~path:store_path
    in
    List.iter (fun o -> Barrier.set_int o 0 999_983) roots;
    ignore (Manager.checkpoint m roots);
    Sweep.roots_equal roots (latest ())
  with
  | exception e ->
      Error ("post-recovery checkpoint raised " ^ Printexc.to_string e)
  | false -> Error "checkpoint appended after recovery is not restorable"
  | true -> Ok ()

let check_recovery vfs snapshots =
  let schema = (Sweep.world ~offset:0).schema in
  match Store.open_ ~vfs ~records_per_chunk schema ~path:store_path with
  | exception e -> Error ("Store.open_ raised " ^ Printexc.to_string e)
  | store -> (
      match Store.check store with
      | _ :: _ as errs -> Error ("Store.check: " ^ String.concat "; " errs)
      | [] -> (
          match Store.epochs store with
          | [] -> Error "no committed epoch survived"
          | epochs ->
              let restore epoch = snd (Store.restore store ~epoch) in
              Result.bind (Sweep.check_epochs ~restore snapshots epochs)
                (fun () -> second_life ~vfs ~schema)))

let workload ?(rounds = 5) () =
  { Sweep.label = "store";
    seed = [];
    run = run_workload ~rounds;
    check = check_recovery }
