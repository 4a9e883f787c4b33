open Ickpt_runtime
open Ickpt_stream

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type record = {
  rec_id : int;
  rec_kid : int;
  rec_ints : int array;
  rec_child_ids : int array;
}

let find_class schema kid ~id =
  match Schema.find schema kid with
  | k -> k
  | exception Not_found -> error "unknown class id %d in record %d" kid id

let read_record schema inp =
  let rec_id = In_stream.read_int inp in
  let rec_kid = In_stream.read_int inp in
  let klass = find_class schema rec_kid ~id:rec_id in
  let rec_ints = Array.make klass.Model.n_ints 0 in
  In_stream.read_ints inp rec_ints klass.Model.n_ints;
  let rec_child_ids = Array.make klass.Model.n_children 0 in
  In_stream.read_ints inp rec_child_ids klass.Model.n_children;
  { rec_id; rec_kid; rec_ints; rec_child_ids }

let records_of_body schema body =
  let inp = In_stream.of_string body in
  let rec go acc =
    if In_stream.at_end inp then List.rev acc
    else go (read_record schema inp :: acc)
  in
  go []

(* Framing only: the same decoding as [read_record], but the field values
   are skipped by their bytes, so chunking a body or locating its records
   costs a byte loop, not arrays. Returns the record's id. *)
let skip_frame schema inp =
  let rec_id = In_stream.read_int inp in
  let klass = find_class schema (In_stream.read_int inp) ~id:rec_id in
  In_stream.skip_varints inp (klass.Model.n_ints + klass.Model.n_children);
  rec_id

(* Calls [f rec_id offset length] per record. *)
let iter_frames schema body f =
  let inp = In_stream.of_string body in
  while not (In_stream.at_end inp) do
    let start = In_stream.pos inp in
    let rec_id = skip_frame schema inp in
    f rec_id start (In_stream.pos inp - start)
  done

(* The arrays are not trimmed to the count: sized by a good hint, they
   are allocated once and never copied. *)
let frames ?(hint = 0) schema body =
  let inp = In_stream.of_string body in
  let ids = ref (Array.make (max 16 hint) 0) in
  let offs = ref (Array.make (max 16 hint) 0) and n = ref 0 in
  let grow a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  while not (In_stream.at_end inp) do
    let r = !n in
    if r = Array.length !ids then begin
      ids := grow !ids;
      offs := grow !offs
    end;
    Array.unsafe_set !offs r (In_stream.pos inp);
    Array.unsafe_set !ids r (skip_frame schema inp);
    n := r + 1
  done;
  (!ids, !offs, !n)

let frame_len schema s ~pos ~len =
  let inp = In_stream.of_string_at s ~pos in
  In_stream.window inp ~pos ~len;
  ignore (skip_frame schema inp : int);
  In_stream.pos inp - pos

let scan_body schema body =
  let frames = ref [] in
  iter_frames schema body (fun id off len -> frames := (id, off, len) :: !frames);
  List.rev !frames

let record_at schema s ~pos = read_record schema (In_stream.of_string_at s ~pos)

(* ------------------------------------------------------------------ *)
(* Dense slots: the newest-wins id -> record-location fold.            *)

(* [ids] numbers every id with a slot; per slot, the source and offset of
   its newest record. *)
type slots = {
  ids : Idtbl.t;
  mutable srcs : int array;
  mutable offs : int array;
}

let slots hint =
  let cap = max 16 hint in
  { ids = Idtbl.create cap; srcs = Array.make cap 0; offs = Array.make cap 0 }

let grow a n =
  let b = Array.make (2 * n) 0 in
  Array.blit a 0 b 0 n;
  b

let set_slot t ~id ~src ~off =
  let s = Idtbl.add t.ids id in
  if s = Array.length t.srcs then begin
    t.srcs <- grow t.srcs s;
    t.offs <- grow t.offs s
  end;
  t.srcs.(s) <- src;
  t.offs.(s) <- off

let find_slot t id =
  match Idtbl.find t.ids id with
  | -1 -> None
  | s -> Some (t.srcs.(s), t.offs.(s))

let iter_slots t f =
  Idtbl.iter t.ids (fun s id -> f id t.srcs.(s) t.offs.(s))

let heap_of_slots schema t ~source ~start ~len ~roots =
  let n = Idtbl.length t.ids in
  (* Built objects by slot, filled from the top down: a child whose slot
     is above its parent's is already here when the parent is decoded.
     The others (a new object pointing to an older one, a cycle's back
     edge) wait in [patches] as (children, field, child slot). *)
  let objs = ref [||] and patches = ref [] in
  (* A record's fields, read in one batch; grown to the widest class. *)
  let fields = ref (Array.make 16 0) in
  (* One cursor per source string, its window moved to each record: from
     the record to its source's end. *)
  let cur_src = ref (-1) and cur = ref (In_stream.of_string "") in
  let decode s =
    let id = Idtbl.key t.ids s and src = t.srcs.(s) and off = t.offs.(s) in
    if id < 0 then error "negative object id %d" id;
    if src <> !cur_src then begin
      let data = source src in
      if data != In_stream.source !cur then cur := In_stream.of_string data;
      cur_src := src
    end;
    let inp = !cur and len = len.(src) in
    if off < 0 || off >= len then
      error "object %d: record offset %d outside its data (%d bytes)" id off
        len;
    In_stream.window inp ~pos:(start.(src) + off) ~len:(len - off);
    let rec_id = In_stream.read_int inp in
    if rec_id <> id then
      error "directory entry for object %d lands on record %d" id rec_id;
    let klass = find_class schema (In_stream.read_int inp) ~id in
    let n_ints = klass.Model.n_ints and n_children = klass.Model.n_children in
    if n_ints + n_children > Array.length !fields then
      fields := Array.make (n_ints + n_children) 0;
    let fields = !fields in
    In_stream.read_ints inp fields (n_ints + n_children);
    let children = Array.make n_children None in
    let o =
      { Model.info = { Model.id; modified = false };
        klass;
        ints = Array.sub fields 0 n_ints;
        children }
    in
    for j = 0 to n_children - 1 do
      let cid = fields.(n_ints + j) in
      if cid <> Model.null_id then
        match Idtbl.find t.ids cid with
        | -1 -> error "object %d references missing child %d (slot %d)" id cid j
        | k when k > s -> children.(j) <- Some !objs.(k)
        | k when k = s -> children.(j) <- Some o
        | k -> patches := (children, j, k) :: !patches
    done;
    o
  in
  (* The newest slot's object fills the array until each slot's own
     comes. *)
  if n > 0 then begin
    let a = Array.make n (decode (n - 1)) in
    objs := a;
    for s = n - 2 downto 0 do
      a.(s) <- decode s
    done
  end;
  let objs = !objs in
  List.iter (fun (children, j, k) -> children.(j) <- Some objs.(k)) !patches;
  let root id =
    match Idtbl.find t.ids id with
    | -1 -> error "root object %d not present in checkpoint" id
    | s -> objs.(s)
  in
  let roots = List.map root roots in
  (* The slot table already numbers every object: it becomes the heap's
     registry as it is. *)
  (Heap.adopt schema t.ids objs, roots)

let of_segments schema segments ~roots =
  let bodies =
    Array.of_list (List.map (fun (seg : Segment.t) -> seg.body) segments)
  in
  let t = slots 1024 in
  Array.iteri
    (fun src body ->
      iter_frames schema body (fun id off _ -> set_slot t ~id ~src ~off))
    bodies;
  heap_of_slots schema t ~source:(Array.get bodies)
    ~start:(Array.make (Array.length bodies) 0)
    ~len:(Array.map String.length bodies) ~roots
