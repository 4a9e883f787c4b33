open Ickpt_runtime
open Ickpt_stream

type stats = {
  mutable visited : int;
  mutable recorded : int;
  mutable skipped : int;
}

let fresh_stats () = { visited = 0; recorded = 0; skipped = 0 }

(* The paper's Figure 1, [Checkpoint.checkpoint]. The two [Model.record]/
   [Model.fold] calls are virtual dispatches through the vtable. The
   visitor is one closure per call, so visiting an object allocates
   nothing. *)
let incremental_many ?(stats = fresh_stats ()) d roots =
  let rec visit o =
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
    Model.fold o visit
  in
  List.iter visit roots

let incremental ?stats d root = incremental_many ?stats d [ root ]

(* One visited set per domain, kept between takes and cleared rather than
   regrown from nothing each time. A take checks it out, leaving [None], so
   a take nested in another's [record] (or in another thread of the
   domain) makes a table of its own; the last one returned is kept. *)
let visited : Idtbl.t option Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make None)

(* One visited set across roots, so an object reachable from two roots is
   still recorded once. It is an int table with no payload: marking an
   object allocates nothing until the table doubles. *)
let full_many ?(stats = fresh_stats ()) d roots =
  let kept = Domain.DLS.get visited in
  let seen =
    match Atomic.exchange kept None with
    | Some seen ->
        Idtbl.clear seen;
        seen
    | None -> Idtbl.create 64
  in
  let rec visit o =
    stats.visited <- stats.visited + 1;
    let fresh = Idtbl.length seen in
    if Idtbl.add seen o.Model.info.Model.id = fresh then begin
      Out_stream.write_int d o.Model.info.Model.id;
      Out_stream.write_int d o.Model.klass.Model.kid;
      Model.record o d;
      o.Model.info.Model.modified <- false;
      stats.recorded <- stats.recorded + 1;
      Model.fold o visit
    end
  in
  List.iter visit roots;
  Atomic.set kept (Some seen)

let full ?stats d root = full_many ?stats d [ root ]

let full_tree ?(stats = fresh_stats ()) d root =
  let rec visit o =
    stats.visited <- stats.visited + 1;
    Out_stream.write_int d o.Model.info.Model.id;
    Out_stream.write_int d o.Model.klass.Model.kid;
    Model.record o d;
    o.Model.info.Model.modified <- false;
    stats.recorded <- stats.recorded + 1;
    Model.fold o visit
  in
  visit root
