type load_result = {
  segments : Segment.t list;
  torn_tail : bool;
  bytes_read : int;
}

let append ?(vfs = Vfs.real) ~path seg =
  Vfs.write_synced vfs Append path (fun write -> write (Segment.encode seg))

let temp_of ~path = path ^ ".tmp"

let write_chain ?(vfs = Vfs.real) ~path chain =
  (* Write to a sibling temp file and atomically rename it over the log:
     an interrupted rewrite must never leave a half-written log in place
     of the old one (it used to — in-place truncate + rewrite lost the
     whole chain if crashed mid-way). *)
  let tmp = temp_of ~path in
  Vfs.write_synced vfs Trunc tmp (fun write ->
      List.iter (fun seg -> write (Segment.encode seg)) (Chain.segments chain));
  vfs.Vfs.rename ~src:tmp ~dst:path

let load ?(vfs = Vfs.real) path =
  let data = Vfs.contents vfs path in
  let segments, bytes_read =
    Ickpt_stream.In_stream.intact_prefix Segment.decode data
  in
  { segments; torn_tail = bytes_read < String.length data; bytes_read }

let load_chain ?vfs schema ~path =
  let { segments; torn_tail; _ } = load ?vfs path in
  let chain = Chain.create schema in
  List.iter (Chain.append chain) segments;
  (chain, torn_tail)
