open Ickpt_runtime
open Ickpt_stream

type stats = {
  mutable visited : int;
  mutable recorded : int;
  mutable skipped : int;
}

let fresh_stats () = { visited = 0; recorded = 0; skipped = 0 }

(* The paper's Figure 1, [Checkpoint.checkpoint]. The two [Model.record]/
   [Model.fold] calls are virtual dispatches through the vtable. *)
let rec visit_incremental d stats o =
  stats.visited <- stats.visited + 1;
  let info = o.Model.info in
  if info.Model.modified then begin
    Out_stream.write_int d info.Model.id;
    Out_stream.write_int d o.Model.klass.Model.kid;
    Model.record o d;
    info.Model.modified <- false;
    stats.recorded <- stats.recorded + 1
  end
  else stats.skipped <- stats.skipped + 1;
  Model.fold o (visit_incremental d stats)

let incremental ?(stats = fresh_stats ()) d root = visit_incremental d stats root

let full ?(stats = fresh_stats ()) d root =
  let seen = Hashtbl.create 1024 in
  let rec visit o =
    stats.visited <- stats.visited + 1;
    let id = o.Model.info.Model.id in
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      Out_stream.write_int d id;
      Out_stream.write_int d o.Model.klass.Model.kid;
      Model.record o d;
      o.Model.info.Model.modified <- false;
      stats.recorded <- stats.recorded + 1;
      Model.fold o visit
    end
  in
  visit root

let incremental_many ?stats d roots =
  List.iter (incremental ?stats d) roots

let full_many ?(stats = fresh_stats ()) d roots =
  (* Share the visited set across roots so an object reachable from two
     roots is still recorded once. *)
  let seen = Hashtbl.create 1024 in
  let rec visit o =
    stats.visited <- stats.visited + 1;
    let id = o.Model.info.Model.id in
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      Out_stream.write_int d id;
      Out_stream.write_int d o.Model.klass.Model.kid;
      Model.record o d;
      o.Model.info.Model.modified <- false;
      stats.recorded <- stats.recorded + 1;
      Model.fold o visit
    end
  in
  List.iter visit roots

let rec visit_full_tree d stats o =
  stats.visited <- stats.visited + 1;
  Out_stream.write_int d o.Model.info.Model.id;
  Out_stream.write_int d o.Model.klass.Model.kid;
  Model.record o d;
  o.Model.info.Model.modified <- false;
  stats.recorded <- stats.recorded + 1;
  Model.fold o (visit_full_tree d stats)

let full_tree ?(stats = fresh_stats ()) d root = visit_full_tree d stats root
