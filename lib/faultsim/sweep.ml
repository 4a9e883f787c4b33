open Ickpt_runtime

type violation = {
  v_op : int;
  v_byte : int;
  v_mode : Sim.mode;
  v_reason : string;
}

type report = {
  r_label : string;
  r_points : int;
  r_runs : int;
  r_violations : violation list;
}

type 's workload = {
  label : string;
  seed : (string * string) list;
  run : Ickpt_core.Vfs.t -> commit:('s -> unit) -> base:(unit -> unit) -> unit;
  check : Ickpt_core.Vfs.t -> 's list -> (unit, string) result;
}

(* -- Crash-point enumeration --------------------------------------------- *)

let enumerate op_log ~from_op ~density =
  List.concat
    (List.mapi
       (fun k (kind, len) ->
         let bytes =
           if k < from_op then []
           else if kind <> "write" then [ 0; 1 ]
           else
             List.init density (fun j -> len * (j + 1) / (density + 1))
             |> List.append [ 0; 1; len - 1; len ]
             |> List.sort_uniq compare
             |> List.filter (fun b -> b >= 0 && b <= len)
         in
         List.map (fun b -> (k, b)) bytes)
       op_log)

let run ?(density = 2) w =
  (* Fault-free reference run: committed states + the op trace to crash. *)
  let ref_sim = Sim.seeded w.seed in
  let committed = ref [] and from_op = ref 0 in
  w.run (Sim.vfs ref_sim)
    ~commit:(fun s -> committed := s :: !committed)
    ~base:(fun () -> from_op := Sim.ops ref_sim);
  let committed = List.rev !committed in
  let points = enumerate (Sim.op_log ref_sim) ~from_op:!from_op ~density in
  let crashes =
    List.concat_map
      (fun (op, byte) -> List.map (fun mode -> (op, byte, mode)) Sim.modes)
      points
  in
  let violations =
    List.filter_map
      (fun (op, byte, mode) ->
        let sim = Sim.seeded ~fault:(Sim.Crash_at { op; byte; mode }) w.seed in
        (* A crashed run ends in the power loss itself, or in the failure a
           storage layer reports once its writes stopped landing. *)
        (try w.run (Sim.vfs sim) ~commit:ignore ~base:ignore with
        | Sim.Crashed | Sim.Io_error _ | Failure _
        | Ickpt_service.Service.Error _ ->
            ());
        match w.check (Sim.vfs (Sim.restart sim)) committed with
        | Ok () -> None
        | Error v_reason ->
            Some { v_op = op; v_byte = byte; v_mode = mode; v_reason })
      crashes
  in
  { r_label = w.label;
    r_points = List.length points;
    r_runs = List.length crashes;
    r_violations = violations }

(* -- Shared pieces of the workloads -------------------------------------- *)

type world = { schema : Schema.t; roots : Model.obj list; mutate : int -> unit }

let world ~offset =
  let schema = Schema.create () in
  let leaf = Schema.declare schema ~name:"Leaf" ~ints:1 ~children:0 () in
  let pair = Schema.declare schema ~name:"Pair" ~ints:2 ~children:2 () in
  let heap = Heap.create schema in
  let mk cls ints children =
    let o = Heap.alloc heap cls in
    List.iteri (fun i v -> o.Model.ints.(i) <- v + offset) ints;
    List.iteri (fun i c -> o.Model.children.(i) <- Some c) children;
    o
  in
  let l1 = mk leaf [ 1 ] [] and l2 = mk leaf [ 2 ] [] in
  let l3 = mk leaf [ 3 ] [] and l4 = mk leaf [ 4 ] [] in
  let pa = mk pair [ 5; 6 ] [ l1; l2 ] in
  let pb = mk pair [ 7; 8 ] [ l3; l4 ] in
  let root = mk pair [ 9; 10 ] [ pa; pb ] in
  let objs = [| root; pa; pb; l1; l2; l3; l4 |] in
  let n = Array.length objs in
  let mutate r =
    Barrier.set_int objs.(r mod n) 0 (offset + 1000 + (2 * r));
    Barrier.set_int objs.((r + 3) mod n) 0 (offset + 1001 + (2 * r))
  in
  { schema; roots = [ root ]; mutate }

let roots_equal a b =
  List.length a = List.length b && List.for_all2 Deep_eq.equal a b

let check_epochs ~restore committed epochs =
  List.fold_left
    (fun acc e ->
      Result.bind acc (fun () ->
          match List.assoc_opt e committed with
          | None -> Error (Printf.sprintf "epoch %d was never committed" e)
          | Some expected ->
              if roots_equal expected (restore e) then Ok ()
              else
                Error
                  (Printf.sprintf
                     "epoch %d does not restore to its committed state" e)))
    (Ok ()) epochs

(* -- Verdicts ------------------------------------------------------------- *)

let ok r = r.r_violations = []

let pp_violation ppf v =
  Format.fprintf ppf "crash at op %d byte %d (%a): %s" v.v_op v.v_byte
    Sim.pp_mode v.v_mode v.v_reason

let pp_report ppf r =
  Format.fprintf ppf "%-40s %4d points %5d runs  %s" r.r_label r.r_points
    r.r_runs
    (if ok r then "OK"
     else Printf.sprintf "%d VIOLATIONS" (List.length r.r_violations));
  List.iter (fun v -> Format.fprintf ppf "@.  %a" pp_violation v) r.r_violations

let pp_summary ppf reports =
  List.iter (fun r -> Format.fprintf ppf "%a@." pp_report r) reports;
  let bad = List.filter (fun r -> not (ok r)) reports in
  let runs = List.fold_left (fun a r -> a + r.r_runs) 0 reports in
  if bad = [] then
    Format.fprintf ppf "crash sweep: %d configs, %d injected crashes, all recoveries prefix-consistent@."
      (List.length reports) runs
  else
    Format.fprintf ppf "crash sweep: %d of %d configs FAILED@." (List.length bad)
      (List.length reports)
