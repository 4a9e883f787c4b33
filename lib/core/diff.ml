
type change =
  | Added of int
  | Removed of int
  | Int_changed of { id : int; slot : int; before : int; after : int }
  | Child_changed of { id : int; slot : int; before : int; after : int }
  | Class_changed of { id : int; before : int; after : int }

let pp_change ppf = function
  | Added id -> Format.fprintf ppf "+ object %d" id
  | Removed id -> Format.fprintf ppf "- object %d" id
  | Int_changed { id; slot; before; after } ->
      Format.fprintf ppf "~ object %d ints[%d]: %d -> %d" id slot before after
  | Child_changed { id; slot; before; after } ->
      Format.fprintf ppf "~ object %d children[%d]: %d -> %d" id slot before
        after
  | Class_changed { id; before; after } ->
      Format.fprintf ppf "~ object %d class: %d -> %d" id before after

(* Newest-wins record table: the diff compares whole records, so it keeps
   its own table rather than going through restoration's slots. *)
let accumulate schema segs =
  let table : (int, Restore.record) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun (seg : Segment.t) ->
      List.iter
        (fun (r : Restore.record) -> Hashtbl.replace table r.rec_id r)
        (Restore.records_of_body schema seg.body))
    segs;
  table

let record_changes id ~(before : Restore.record) ~(after : Restore.record) =
  if before.rec_kid <> after.rec_kid then
    [ Class_changed { id; before = before.rec_kid; after = after.rec_kid } ]
  else begin
    let changes = ref [] in
    Array.iteri
      (fun slot v ->
        let v' = after.rec_ints.(slot) in
        if v <> v' then
          changes := Int_changed { id; slot; before = v; after = v' } :: !changes)
      before.rec_ints;
    Array.iteri
      (fun slot v ->
        let v' = after.rec_child_ids.(slot) in
        if v <> v' then
          changes :=
            Child_changed { id; slot; before = v; after = v' } :: !changes)
      before.rec_child_ids;
    List.rev !changes
  end

let sort changes =
  let key = function
    | Added id | Removed id -> (id, -1)
    | Class_changed { id; _ } -> (id, -2)
    | Int_changed { id; slot; _ } -> (id, slot)
    | Child_changed { id; slot; _ } -> (id, 1000 + slot)
  in
  List.sort (fun a b -> compare (key a) (key b)) changes

let segments schema ~before ~after =
  let tb = accumulate schema before and ta = accumulate schema after in
  let changes = ref [] in
  Hashtbl.iter
    (fun id r_before ->
      match Hashtbl.find_opt ta id with
      | None -> changes := Removed id :: !changes
      | Some r_after ->
          changes :=
            List.rev_append
              (record_changes id ~before:r_before ~after:r_after)
              !changes)
    tb;
  Hashtbl.iter
    (fun id _ -> if not (Hashtbl.mem tb id) then changes := Added id :: !changes)
    ta;
  sort !changes

let chains a b =
  let schema = Chain.schema a in
  segments schema ~before:(Chain.segments a) ~after:(Chain.segments b)

let summary changes =
  let added = ref 0 and removed = ref 0 in
  let touched = Hashtbl.create 16 in
  List.iter
    (function
      | Added _ -> incr added
      | Removed _ -> incr removed
      | Int_changed { id; _ } | Child_changed { id; _ } | Class_changed { id; _ }
        ->
          Hashtbl.replace touched id ())
    changes;
  Printf.sprintf "%d added, %d removed, %d objects changed" !added !removed
    (Hashtbl.length touched)
