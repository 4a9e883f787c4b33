type t = {
  schema : Schema.t;
  objects : (int, Model.obj) Hashtbl.t;
  mutable next_id : int;
}

let create ?(capacity = 1024) schema =
  { schema; objects = Hashtbl.create capacity; next_id = 0 }

let schema t = t.schema

let make_obj klass ~id ~modified =
  { Model.info = { Model.id; modified };
    klass;
    ints = Array.make klass.Model.n_ints 0;
    children = Array.make klass.Model.n_children None }

let alloc t klass =
  let o = make_obj klass ~id:t.next_id ~modified:true in
  Hashtbl.add t.objects t.next_id o;
  t.next_id <- t.next_id + 1;
  o

let alloc_with_id t klass ~id ~modified =
  if id < 0 then invalid_arg "Heap.alloc_with_id: negative id";
  if Hashtbl.mem t.objects id then
    invalid_arg (Printf.sprintf "Heap.alloc_with_id: id %d already live" id);
  let o = make_obj klass ~id ~modified in
  Hashtbl.add t.objects id o;
  if id >= t.next_id then t.next_id <- id + 1;
  o

let find t id = Hashtbl.find_opt t.objects id

let find_exn t id = Hashtbl.find t.objects id

let count t = Hashtbl.length t.objects

let iter t f = Hashtbl.iter (fun _ o -> f o) t.objects

let next_id t = t.next_id

let clear_all_modified t =
  iter t (fun o -> o.Model.info.Model.modified <- false)

let modified_count t =
  let n = ref 0 in
  iter t (fun o -> if o.Model.info.Model.modified then incr n);
  !n

let sweep t ~roots =
  let live = Hashtbl.create (Hashtbl.length t.objects) in
  let rec mark (o : Model.obj) =
    if not (Hashtbl.mem live o.Model.info.Model.id) then begin
      Hashtbl.add live o.Model.info.Model.id ();
      Array.iter
        (function None -> () | Some c -> mark c)
        o.Model.children
    end
  in
  List.iter mark roots;
  let dead =
    Hashtbl.fold
      (fun id _ acc -> if Hashtbl.mem live id then acc else id :: acc)
      t.objects []
  in
  List.iter (Hashtbl.remove t.objects) dead;
  List.length dead
