open Ickpt_runtime
open Ickpt_core

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let entry_at entries epoch =
  match
    List.find_opt (fun (e : Epoch_index.entry) -> e.epoch = epoch) entries
  with
  | Some e -> e
  | None -> error "unknown epoch %d" epoch

(* [lens] is each source's chunk length when folded against a pack, and
   empty otherwise. *)
type t = {
  slots : Restore.slots;
  keys : int array;
  lens : int array;
  roots : int list;
}

let fold_with pack ~entries ~epoch =
  let e = entry_at entries epoch in
  (* A full epoch's delta is a complete directory by construction, so fold
     newest-wins from the nearest full at or before [epoch] — nothing older
     matters, and nothing older is decoded. *)
  let live = Epoch_index.since_full entries ~epoch in
  (* A slot's source is its chunk's position in the concatenation of the
     folded entries' chunk lists. *)
  let keys =
    Array.of_list (List.concat_map (fun (x : Epoch_index.entry) -> x.chunks) live)
  in
  let lens =
    match pack with
    | None -> [||]
    | Some pack -> Array.map (Pack.chunk_len pack) keys
  in
  let slots =
    Restore.slots
      (match live with
      | x :: _ -> Epoch_index.dir_records x.Epoch_index.dir
      | [] -> 0)
  in
  ignore
    (List.fold_left
       (fun first (x : Epoch_index.entry) ->
         let set =
           match pack with
           | None ->
               fun id c off -> Restore.set_slot slots ~id ~src:(first + c) ~off
           | Some _ ->
               fun id c off ->
                 let src = first + c in
                 if off < 0 || off >= lens.(src) then
                   error "epoch %d: object %d at offset %d of chunk %d (%d bytes)"
                     x.epoch id off c lens.(src);
                 Restore.set_slot slots ~id ~src ~off
         in
         (match Epoch_index.iter_dir x set with
         | () -> ()
         | exception Ickpt_stream.In_stream.Corrupt msg -> error "%s" msg);
         first + List.length x.chunks)
       0 live
      : int);
  { slots; keys; lens; roots = e.roots }

let fold ~entries ~epoch = fold_with None ~entries ~epoch

let fold_in pack ~entries ~epoch = fold_with (Some pack) ~entries ~epoch

let find d id =
  Option.map (fun (src, off) -> (d.keys.(src), off)) (Restore.find_slot d.slots id)

let iter d f =
  Restore.iter_slots d.slots (fun id src off -> f id (d.keys.(src), off))

type reader = {
  pack : Pack.t;
  schema : Schema.t;
  cache : (int, string) Hashtbl.t;
}

let reader pack schema = { pack; schema; cache = Hashtbl.create 64 }

let chunk r key =
  match Hashtbl.find_opt r.cache key with
  | Some d -> d
  | None ->
      let d = Pack.read r.pack key in
      Hashtbl.replace r.cache key d;
      d

let record r (key, off) = Restore.record_at r.schema (chunk r key) ~pos:off

(* An epoch's live records where one Pack.fetch of the chunks some of
   them lie in put them: the fetch buffer, and where each source starts
   in it ([-1]: not fetched, every record of it superseded). *)
type live = { dir : t; buf : string; start : int array }

let live pack ~entries ~epoch =
  let d = fold_in pack ~entries ~epoch in
  let n = Array.length d.keys in
  let start = Array.make n (-1) in
  Restore.iter_slots d.slots (fun _ src _ -> start.(src) <- 0);
  let srcs = ref [] in
  for src = n - 1 downto 0 do
    if start.(src) = 0 then srcs := src :: !srcs
  done;
  let srcs = Array.of_list !srcs in
  let buf, at = Pack.fetch pack (Array.map (Array.get d.keys) srcs) in
  Array.iteri (fun i src -> start.(src) <- at.(i)) srcs;
  { dir = d; buf; start }

(* A live record is not framed: it equals a record of at most as many
   bytes as are left in its chunk. *)
let find_equal l id s ~pos ~len =
  match Restore.find_slot l.dir.slots id with
  | Some (src, off)
    when len <= l.dir.lens.(src) - off
         && Chunk.equal_sub s pos l.buf (l.start.(src) + off) len ->
      Some (src, off)
  | _ -> None

let restore pack schema ~entries ~epoch =
  let l = live pack ~entries ~epoch in
  Restore.heap_of_slots schema l.dir.slots
    ~source:(fun _ -> l.buf)
    ~start:l.start ~len:l.dir.lens ~roots:l.dir.roots
