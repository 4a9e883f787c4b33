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
  let rec_ints =
    Array.init klass.Model.n_ints (fun _ -> In_stream.read_int inp)
  in
  let rec_child_ids =
    Array.init klass.Model.n_children (fun _ -> In_stream.read_int inp)
  in
  { rec_id; rec_kid; rec_ints; rec_child_ids }

let records_of_body schema body =
  let inp = In_stream.of_string body in
  let rec go acc =
    if In_stream.at_end inp then List.rev acc
    else go (read_record schema inp :: acc)
  in
  go []

(* Framing-only walk: same decoding as [read_record] but the field values
   are skipped, so chunking a body or locating its records costs varint
   skipping, not arrays. Calls [f rec_id offset length] per record. *)
let iter_frames schema body f =
  let inp = In_stream.of_string body in
  while not (In_stream.at_end inp) do
    let start = In_stream.pos inp in
    let rec_id = In_stream.read_int inp in
    let klass = find_class schema (In_stream.read_int inp) ~id:rec_id in
    for _ = 1 to klass.Model.n_ints + klass.Model.n_children do
      ignore (In_stream.read_int inp : int)
    done;
    f rec_id start (In_stream.pos inp - start)
  done

let scan_body schema body =
  let frames = ref [] in
  iter_frames schema body (fun id off len -> frames := (id, off, len) :: !frames);
  List.rev !frames

let record_at schema s ~pos = read_record schema (In_stream.of_string_at s ~pos)

(* ------------------------------------------------------------------ *)
(* Dense slots: the newest-wins id -> record-location fold.            *)

(* An open-addressing table from id to slot: [table] holds [slot + 1] per
   bucket (0 = empty) and the id of a slot is [ids.(slot)], so a probe
   compares ids without a second key array. Ids come from disk, so the
   bucket index must not degrade on adversarial ones: the multiply-and-fold
   puts every bit of the id into the low bits the mask keeps. The table is
   at most half full, so probes stay short and always reach an empty
   bucket. *)
type slots = {
  mutable table : int array;
  mutable ids : int array;
  mutable srcs : int array;
  mutable offs : int array;
  mutable n : int;
}

let hash x =
  let h = x * 0x9e3779b97f4a7c1 in
  h lxor (h lsr 32)

let rec pow2_above n k = if k > n then k else pow2_above n (2 * k)

let slots hint =
  let cap = max 16 hint in
  { table = Array.make (pow2_above (2 * cap) 16) 0;
    ids = Array.make cap 0;
    srcs = Array.make cap 0;
    offs = Array.make cap 0;
    n = 0 }

(* The bucket holding [id], or the empty bucket where it would go. *)
let bucket t id =
  let mask = Array.length t.table - 1 in
  let rec probe i =
    let e = t.table.(i) in
    if e = 0 || t.ids.(e - 1) = id then i else probe ((i + 1) land mask)
  in
  probe (hash id land mask)

let find t id = t.table.(bucket t id) - 1

let grow a n =
  let b = Array.make (2 * n) 0 in
  Array.blit a 0 b 0 n;
  b

let set_slot t ~id ~src ~off =
  let b = bucket t id in
  let s =
    if t.table.(b) > 0 then t.table.(b) - 1
    else begin
      let s = t.n in
      if s = Array.length t.ids then begin
        t.ids <- grow t.ids s;
        t.srcs <- grow t.srcs s;
        t.offs <- grow t.offs s
      end;
      t.ids.(s) <- id;
      t.table.(b) <- s + 1;
      t.n <- s + 1;
      if 2 * t.n > Array.length t.table then begin
        t.table <- Array.make (2 * Array.length t.table) 0;
        for s = 0 to t.n - 1 do
          t.table.(bucket t t.ids.(s)) <- s + 1
        done
      end;
      s
    end
  in
  t.srcs.(s) <- src;
  t.offs.(s) <- off

let find_slot t id =
  match find t id with
  | -1 -> None
  | s -> Some (t.srcs.(s), t.offs.(s))

let iter_slots t f =
  for s = 0 to t.n - 1 do
    f t.ids.(s) t.srcs.(s) t.offs.(s)
  done

let heap_of_slots schema t ~source ~roots =
  let heap = Heap.create ~capacity:t.n schema in
  (* Child slots of every object, flat in slot-then-field order, -1 for
     null: children may be decoded after their parent, so pointers are
     patched once every object exists. *)
  let kids = ref (Array.make (max 16 (2 * t.n)) 0) and n_kids = ref 0 in
  let push_kid k =
    if !n_kids = Array.length !kids then kids := grow !kids !n_kids;
    !kids.(!n_kids) <- k;
    incr n_kids
  in
  let cur_src = ref (-1) and cur = ref "" in
  let decode s =
    let id = t.ids.(s) and src = t.srcs.(s) and off = t.offs.(s) in
    if id < 0 then error "negative object id %d" id;
    if src <> !cur_src then begin
      cur := source src;
      cur_src := src
    end;
    if off < 0 || off >= String.length !cur then
      error "object %d: record offset %d outside its data (%d bytes)" id off
        (String.length !cur);
    let inp = In_stream.of_string_at !cur ~pos:off in
    let rec_id = In_stream.read_int inp in
    if rec_id <> id then
      error "directory entry for object %d lands on record %d" id rec_id;
    let klass = find_class schema (In_stream.read_int inp) ~id in
    let o = Heap.alloc_with_id heap klass ~id ~modified:false in
    let ints = o.Model.ints in
    for i = 0 to klass.Model.n_ints - 1 do
      ints.(i) <- In_stream.read_int inp
    done;
    for j = 0 to klass.Model.n_children - 1 do
      let cid = In_stream.read_int inp in
      if cid = Model.null_id then push_kid (-1)
      else
        match find t cid with
        | -1 -> error "object %d references missing child %d (slot %d)" id cid j
        | k -> push_kid k
    done;
    o
  in
  (* [Array.init] applies [decode] to the slots in order. *)
  let objs = Array.init t.n decode in
  let kids = !kids and k = ref 0 in
  Array.iter
    (fun (o : Model.obj) ->
      let children = o.Model.children in
      for j = 0 to Array.length children - 1 do
        let c = kids.(!k) in
        if c >= 0 then children.(j) <- Some objs.(c);
        incr k
      done)
    objs;
  let root id =
    match find t id with
    | -1 -> error "root object %d not present in checkpoint" id
    | s -> objs.(s)
  in
  (heap, List.map root roots)

let of_segments schema segments ~roots =
  let bodies =
    Array.of_list (List.map (fun (seg : Segment.t) -> seg.body) segments)
  in
  let t = slots 1024 in
  Array.iteri
    (fun src body ->
      iter_frames schema body (fun id off _ -> set_slot t ~id ~src ~off))
    bodies;
  heap_of_slots schema t ~source:(Array.get bodies) ~roots
