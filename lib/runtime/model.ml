type info = { id : int; mutable modified : bool }

type klass = {
  kid : int;
  kname : string;
  parent : klass option;
  n_ints : int;
  n_children : int;
  own_ints : int;
  own_children : int;
  mutable record_m : obj -> Ickpt_stream.Out_stream.t -> unit;
  mutable fold_m : obj -> (obj -> unit) -> unit;
}

and obj = {
  info : info;
  klass : klass;
  ints : int array;
  children : obj option array;
}

let record o d = o.klass.record_m o d

let fold o f = o.klass.fold_m o f

let null_id = -1

let default_record o d =
  let open Ickpt_stream in
  for i = 0 to Array.length o.ints - 1 do
    Out_stream.write_int d o.ints.(i)
  done;
  for j = 0 to Array.length o.children - 1 do
    match o.children.(j) with
    | None -> Out_stream.write_int d null_id
    | Some c -> Out_stream.write_int d c.info.id
  done

let default_fold o f =
  for j = 0 to Array.length o.children - 1 do
    match o.children.(j) with None -> () | Some c -> f c
  done

let is_instance o k =
  let rec up = function
    | None -> false
    | Some k' -> k' == k || up k'.parent
  in
  up (Some o.klass)
