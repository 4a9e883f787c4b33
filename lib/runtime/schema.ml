type t = {
  mutable by_kid : Model.klass array;  (* indexed by kid, [next_kid] used *)
  by_name : (string, Model.klass) Hashtbl.t;
  mutable next_kid : int;
}

let create () =
  { by_kid = [||]; by_name = Hashtbl.create 16;
    next_kid = 0 }

let declare t ~name ?parent ~ints ~children () =
  if Hashtbl.mem t.by_name name then
    invalid_arg (Printf.sprintf "Schema.declare: duplicate class %S" name);
  if ints < 0 || children < 0 then invalid_arg "Schema.declare: negative arity";
  let inherited_ints, inherited_children =
    match parent with
    | None -> (0, 0)
    | Some p -> (p.Model.n_ints, p.Model.n_children)
  in
  let k =
    { Model.kid = t.next_kid;
      kname = name;
      parent;
      n_ints = inherited_ints + ints;
      n_children = inherited_children + children;
      own_ints = ints;
      own_children = children;
      record_m = Model.default_record;
      fold_m = Model.default_fold }
  in
  t.next_kid <- t.next_kid + 1;
  if k.Model.kid = Array.length t.by_kid then begin
    (* The new class fills the fresh cells until their own classes come. *)
    let a = Array.make (max 16 (2 * k.Model.kid)) k in
    Array.blit t.by_kid 0 a 0 k.Model.kid;
    t.by_kid <- a
  end;
  t.by_kid.(k.Model.kid) <- k;
  Hashtbl.add t.by_name name k;
  k

let find t kid =
  if kid < 0 || kid >= t.next_kid then raise Not_found;
  Array.unsafe_get t.by_kid kid

let find_name t name = Hashtbl.find t.by_name name

let count t = t.next_kid

let iter t f =
  for kid = 0 to t.next_kid - 1 do
    f t.by_kid.(kid)
  done
