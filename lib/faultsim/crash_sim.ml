open Ickpt_core
open Ickpt_runtime

let log_path = "ckpt.log"

type config = {
  label : string;
  async : bool;
  policy : Policy.t;
  compact_above : int;
  pre_torn : bool;
}

let config ?(async = false) ?(compact_above = 0) ?(pre_torn = false) policy =
  let label =
    Format.asprintf "%s/%a%s%s"
      (if async then "async" else "sync")
      Policy.pp policy
      (if compact_above > 0 then
         Printf.sprintf "/compact>%d" compact_above
       else "")
      (if pre_torn then "/pre-torn" else "")
  in
  { label; async; policy; compact_above; pre_torn }

let default_configs =
  let policies =
    [ Policy.Always_full;
      Policy.Incremental_after_base;
      Policy.Full_every 3;
      Policy.Chain_bytes_limit 64 ]
  in
  List.concat_map
    (fun async ->
      List.concat_map
        (fun policy ->
          [ config ~async policy; config ~async ~compact_above:3 policy ])
        policies)
    [ false; true ]
  @ [ config ~pre_torn:true Policy.Incremental_after_base;
      config ~async:true ~compact_above:3 ~pre_torn:true (Policy.Full_every 3) ]

(* -- The deterministic workload ----------------------------------------- *)

let recovered_roots m =
  match Chain.recover (Manager.chain m) with
  | Ok (_heap, roots) -> roots
  | Error e -> failwith ("crash_sim: reference recovery failed: " ^ e)

let run_workload ~cfg ~rounds vfs ~commit ~base =
  let w = Sweep.world ~offset:0 in
  let m =
    Manager.create ~vfs ~policy:cfg.policy ~async:cfg.async
      ~compact_above:cfg.compact_above w.schema ~path:log_path
  in
  Fun.protect
    ~finally:(fun () -> try Manager.close m with _ -> ())
    (fun () ->
      ignore (Manager.checkpoint m w.roots);
      Manager.flush m;
      commit (recovered_roots m);
      (* A pre-torn log already holds a recoverable chain, so every op is
         fair game — including the tail truncation Manager.create
         performs. *)
      if not cfg.pre_torn then base ();
      for r = 1 to rounds do
        (* A resumed (pre-torn) life's rounds are offset so their values
           never collide with the pre-life's. *)
        w.mutate ((if cfg.pre_torn then 10 else 0) + r);
        ignore (Manager.checkpoint m w.roots);
        commit (recovered_roots m)
      done;
      Manager.flush m)

(* -- Pre-torn seed ------------------------------------------------------- *)

(* An earlier life's log (the base checkpoint and one round) followed by
   the front half of a valid segment: it decodes far enough to look like a
   checkpoint interrupted mid-append, the realistic torn tail. Returns the
   seed files and the earlier life's committed states. *)
let pre_torn_log () =
  let sim = Sim.create () and states = ref [] in
  run_workload ~cfg:(config Policy.Incremental_after_base) ~rounds:1
    (Sim.vfs sim) ~commit:(fun s -> states := s :: !states) ~base:ignore;
  let enc =
    Segment.encode
      { Segment.kind = Segment.Full; seq = 99; roots = []; body = "torn" }
  in
  let torn = String.sub enc 0 (String.length enc - 5) in
  let log = List.assoc log_path (Sim.durable sim) ^ torn in
  ([ (log_path, log) ], List.rev !states)

(* -- The invariant check ------------------------------------------------- *)

(* After recovering, resume on the survived log: one more checkpoint must
   itself be readable. This is where an un-truncated torn tail kills the
   log (the Manager.create bug): the new segment lands after the garbage
   and reload never reaches it. *)
let second_life ~vfs ~schema roots =
  match
    let m = Manager.create ~vfs schema ~path:log_path in
    List.iter (fun o -> Barrier.set_int o 0 999_983) roots;
    ignore (Manager.checkpoint m roots);
    Manager.close m;
    Manager.recover_latest ~vfs schema ~path:log_path
  with
  | exception e ->
      Error ("post-recovery checkpoint raised " ^ Printexc.to_string e)
  | Error e -> Error ("post-recovery recovery failed: " ^ e)
  | Ok (_heap, roots') ->
      if Sweep.roots_equal roots roots' then Ok ()
      else Error "checkpoint appended after recovery is not readable"

let check_recovery vfs snapshots =
  let schema = (Sweep.world ~offset:0).schema in
  match Storage.load ~vfs log_path with
  | exception e -> Error ("Storage.load raised " ^ Printexc.to_string e)
  | { Storage.segments = []; _ } -> Error "no intact segment survived"
  | { Storage.segments; _ } -> (
      match
        let chain = Chain.create schema in
        List.iter (Chain.append chain) segments;
        chain
      with
      | exception e -> Error ("chain rebuild raised " ^ Printexc.to_string e)
      | chain -> (
          match Chain.recover chain with
          | exception e -> Error ("recovery raised " ^ Printexc.to_string e)
          | Error e -> Error ("recovery failed: " ^ e)
          | Ok (_heap, roots) ->
              if not (List.exists (Sweep.roots_equal roots) snapshots) then
                Error "recovered state is not a committed checkpoint state"
              else second_life ~vfs ~schema roots))

let workload ?(rounds = 5) cfg =
  let seed, pre_life = if cfg.pre_torn then pre_torn_log () else ([], []) in
  { Sweep.label = cfg.label;
    seed;
    run = run_workload ~cfg ~rounds;
    check = (fun vfs snapshots -> check_recovery vfs (pre_life @ snapshots)) }
