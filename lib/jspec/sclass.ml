open Ickpt_runtime

type status = Clean | Tracked

type shape = { klass : Model.klass; status : status; children : child array }

and child =
  | Null_child
  | Exact of shape
  | Nullable of shape
  | Unknown
  | Clean_opaque

exception Ill_formed of string

let ill_formed fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

let rec validate s =
  let expected = s.klass.Model.n_children in
  if Array.length s.children <> expected then
    ill_formed "shape for %s: %d child declarations, class has %d slots"
      s.klass.Model.kname (Array.length s.children) expected;
  Array.iter
    (function
      | Null_child | Unknown | Clean_opaque -> ()
      | Exact c | Nullable c -> validate c)
    s.children

let shape ?(status = Tracked) klass children =
  let s = { klass; status; children } in
  validate s;
  s

let leaf ?status klass =
  shape ?status klass (Array.make klass.Model.n_children Null_child)

let chain ?(status_at = fun _ -> Tracked) klass ~next_slot ~len =
  if len < 1 then invalid_arg "Sclass.chain: len must be >= 1";
  if next_slot < 0 || next_slot >= klass.Model.n_children then
    invalid_arg "Sclass.chain: next_slot out of range";
  let rec build i =
    let children = Array.make klass.Model.n_children Null_child in
    if i < len - 1 then children.(next_slot) <- Exact (build (i + 1));
    shape ~status:(status_at i) klass children
  in
  build 0

let rec all_clean s =
  s.status = Clean
  && Array.for_all
       (function
         | Null_child | Clean_opaque -> true
         | Exact c | Nullable c -> all_clean c
         | Unknown -> false)
       s.children

let rec tracked_count s =
  (if s.status = Tracked then 1 else 0)
  + Array.fold_left
      (fun acc -> function
        | Null_child | Unknown | Clean_opaque -> acc
        | Exact c | Nullable c -> acc + tracked_count c)
      0 s.children

let pp_status ppf = function
  | Clean -> Format.pp_print_string ppf "clean"
  | Tracked -> Format.pp_print_string ppf "tracked"

let rec pp ppf s =
  Format.fprintf ppf "@[<v 2>%s[%a]" s.klass.Model.kname pp_status s.status;
  Array.iteri
    (fun i c ->
      match c with
      | Null_child -> ()
      | Exact c -> Format.fprintf ppf "@,%d: %a" i pp c
      | Nullable c -> Format.fprintf ppf "@,%d?: %a" i pp c
      | Unknown -> Format.fprintf ppf "@,%d: ?" i
      | Clean_opaque -> Format.fprintf ppf "@,%d: ~clean" i)
    s.children;
  Format.fprintf ppf "@]"
