open Ickpt_core
open Ickpt_runtime
open Ickpt_service

let service_path = "ckpt.svc"

(* -- The deterministic workload ----------------------------------------- *)

(* Three tenants over two shards. "alpha" and "gamma" run byte-identical
   worlds (per-heap object ids restart at 0, so equal structure + equal
   values = equal segment bytes) — their chunks dedup across tenants in
   the shared pack, which is the case a mid-batch crash must not tangle.
   "beta" runs value-offset, so its committed states are distinct from
   everyone's and no accidental snapshot aliasing can mask a violation. *)
let tenant_names = [ "alpha"; "beta"; "gamma" ]

let tenant_world name =
  Sweep.world ~offset:(if name = "beta" then 100_000 else 0)

(* Batches of three epochs; tiny chunks so crash points land inside
   multi-chunk, multi-tenant pack appends. *)
let open_service ~vfs =
  Service.open_ ~vfs ~shards:2 ~records_per_chunk:3
    ~policy:(Policy.Full_every 3)
    ~commit:
      (Service.Group
         { Async_writer.Batch.max_items = 3; max_bytes = max_int; linger = 0. })
    ~path:service_path ()

(* [base] fires once every tenant's base epoch is durable. A taken state
   waits, by tenant and epoch, until the service lists that epoch as
   committed; an I/O error loses the batch it hits, and a later take of a
   lost epoch replaces its state. The run goes on past the error. *)
let run_workload ~rounds vfs ~commit ~base =
  let svc = open_service ~vfs in
  let tens =
    List.map
      (fun name ->
        let w = tenant_world name in
        (name, Service.open_tenant svc w.schema ~name, w))
      tenant_names
  in
  let taken = Hashtbl.create 16 in
  let io f =
    (try f () with Sim.Io_error -> ());
    List.iter
      (fun (name, tn, _) ->
        List.iter
          (fun e ->
            Option.iter
              (fun s ->
                Hashtbl.remove taken (name, e);
                commit ((name, e), s))
              (Hashtbl.find_opt taken (name, e)))
          (Service.epochs tn))
      tens
  in
  let checkpoint (name, tn, (w : Sweep.world)) =
    io (fun () ->
        let epoch = Service.checkpoint tn w.roots in
        Hashtbl.replace taken (name, epoch) (Sweep.snapshot w))
  in
  List.iter checkpoint tens;
  io (fun () -> Service.flush svc);
  base ();
  for r = 1 to rounds do
    List.iter
      (fun ((_, _, (w : Sweep.world)) as t) ->
        w.mutate r;
        checkpoint t)
      tens
  done;
  io (fun () -> Service.flush svc);
  io (fun () -> Service.close svc)

(* -- The invariant check ------------------------------------------------- *)

(* Resume every tenant on the survived store: one more mutation round and
   checkpoint per tenant must itself be restorable. *)
let second_life ~vfs =
  match
    let svc = open_service ~vfs in
    Fun.protect
      ~finally:(fun () -> Service.close svc)
      (fun () ->
        List.for_all
          (fun name ->
            let tn = Service.open_tenant svc (tenant_world name).schema ~name in
            let epoch = Option.get (Service.latest_epoch tn) in
            let _heap, roots = Service.restore tn ~epoch in
            List.iter (fun o -> Barrier.set_int o 0 999_983) roots;
            let e' = Service.checkpoint tn roots in
            Service.flush svc;
            let _heap, roots' = Service.restore tn ~epoch:e' in
            Sweep.roots_equal roots roots')
          tenant_names)
  with
  | exception e ->
      Error ("post-recovery checkpoint raised " ^ Printexc.to_string e)
  | false -> Error "checkpoint appended after recovery is not restorable"
  | true -> Ok ()

(* Every tenant recovers a committed prefix of its own epochs. *)
let check_tenant svc ~exact snapshots name =
  let tn = Service.open_tenant svc (tenant_world name).schema ~name in
  let committed =
    List.filter_map
      (fun ((n, e), roots) -> if n = name then Some (e, roots) else None)
      snapshots
  in
  let restore epoch = snd (Service.restore tn ~epoch) in
  match Service.epochs tn with
  | [] -> Error "no committed epoch survived"
  | epochs when epochs <> List.init (List.length epochs) Fun.id ->
      Error "surviving epochs are not a prefix"
  | epochs -> Sweep.check_epochs ~exact ~restore committed epochs

let check_recovery vfs ~exact snapshots =
  match open_service ~vfs with
  | exception e -> Error ("Service.open_ raised " ^ Printexc.to_string e)
  | svc ->
      let checked =
        Fun.protect
          ~finally:(fun () -> Service.close svc)
          (fun () ->
            match Service.check svc with
            | _ :: _ as errs ->
                Error ("Service.check: " ^ String.concat "; " errs)
            | [] ->
                List.fold_left
                  (fun acc name ->
                    Result.bind acc (fun () ->
                        Result.map_error
                          (Printf.sprintf "tenant %s: %s" name)
                          (check_tenant svc ~exact snapshots name)))
                  (Ok ()) tenant_names)
      in
      Result.bind checked (fun () -> second_life ~vfs)

let workload ?(rounds = 4) () =
  { Sweep.label = "service";
    seed = [];
    run = run_workload ~rounds;
    check = check_recovery }
