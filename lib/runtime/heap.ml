open Ickpt_stream

(* The registry: [ids] numbers every live id with a slot, in allocation
   order, and [objs.(slot)] is its object. *)
type t = {
  schema : Schema.t;
  mutable ids : Idtbl.t;
  mutable objs : Model.obj array;  (* the first [Idtbl.length ids] used *)
  mutable next_id : int;
}

let create ?(capacity = 1024) schema =
  { schema; ids = Idtbl.create capacity; objs = [||]; next_id = 0 }

let schema t = t.schema

let make_obj klass ~id ~modified =
  { Model.info = { Model.id; modified };
    klass;
    ints = Array.make klass.Model.n_ints 0;
    children = Array.make klass.Model.n_children None }

let register t (o : Model.obj) =
  let s = Idtbl.length t.ids in
  let id = o.Model.info.Model.id in
  if Idtbl.add t.ids id <> s then
    invalid_arg (Printf.sprintf "Heap.alloc_with_id: id %d already live" id);
  if s = Array.length t.objs then begin
    (* The new object fills the fresh cells until their own come. *)
    let a = Array.make (max 16 (2 * s)) o in
    Array.blit t.objs 0 a 0 s;
    t.objs <- a
  end;
  t.objs.(s) <- o;
  if id >= t.next_id then t.next_id <- id + 1

let alloc t klass =
  let o = make_obj klass ~id:t.next_id ~modified:true in
  register t o;
  o

let alloc_with_id t klass ~id ~modified =
  if id < 0 then invalid_arg "Heap.alloc_with_id: negative id";
  let o = make_obj klass ~id ~modified in
  register t o;
  o

let adopt schema ids objs =
  let n = Idtbl.length ids in
  if Array.length objs < n then invalid_arg "Heap.adopt: fewer objects than ids";
  let next_id = ref 0 in
  for s = 0 to n - 1 do
    let id = objs.(s).Model.info.Model.id in
    if id < 0 || id <> Idtbl.key ids s then
      invalid_arg (Printf.sprintf "Heap.adopt: slot %d holds object %d" s id);
    if id >= !next_id then next_id := id + 1
  done;
  { schema; ids; objs; next_id = !next_id }

let find t id =
  match Idtbl.find t.ids id with -1 -> None | s -> Some t.objs.(s)

let find_exn t id =
  match Idtbl.find t.ids id with -1 -> raise Not_found | s -> t.objs.(s)

let count t = Idtbl.length t.ids

let iter t f =
  for s = 0 to Idtbl.length t.ids - 1 do
    f t.objs.(s)
  done

let next_id t = t.next_id

let clear_all_modified t =
  iter t (fun o -> o.Model.info.Model.modified <- false)

let modified_count t =
  let n = ref 0 in
  iter t (fun o -> if o.Model.info.Model.modified then incr n);
  !n

(* The registry is rebuilt from the reachable objects, in the order they
   were registered. *)
let sweep t ~roots =
  let n = count t in
  let live = Idtbl.create n in
  let rec mark (o : Model.obj) =
    let fresh = Idtbl.length live in
    if Idtbl.add live o.Model.info.Model.id = fresh then
      for j = 0 to Array.length o.Model.children - 1 do
        match o.Model.children.(j) with None -> () | Some c -> mark c
      done
  in
  List.iter mark roots;
  let objs = t.objs in
  t.ids <- Idtbl.create (Idtbl.length live);
  t.objs <- [||];
  for s = 0 to n - 1 do
    if Idtbl.mem live objs.(s).Model.info.Model.id then register t objs.(s)
  done;
  n - count t
