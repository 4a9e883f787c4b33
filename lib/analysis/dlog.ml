(* Domain-local tracking store. Reads and writes are recorded per
   (global, cell) in hashtables — O(1) per access — and only folded into
   Regions when the oracle asks for the observed footprints. *)

open Staticcheck

type snapshot = {
  sn_scalars : (string * int) list;
  sn_arrays : (string * int array) list;  (* arrays owned by the snapshot *)
}

let snapshot_of_wheap wheap =
  let enc = Wheap.encoding wheap in
  let arrays =
    List.filter_map
      (fun (name, slot) ->
        match slot with
        | Shape_infer.Scalar _ -> None
        | Shape_infer.Array { length; _ } ->
            Some (name, Array.init length (fun i -> Wheap.get_cell wheap name i)))
      enc.Shape_infer.slots
  in
  { sn_scalars = Wheap.scalar_globals wheap; sn_arrays = arrays }

type entry = W_scalar of string * int | W_cell of string * int * int | Mark

type t = {
  d_scalars : (string, int ref) Hashtbl.t;
  d_arrays : (string, int array) Hashtbl.t;
  mutable d_log : entry list;  (* newest first *)
  mutable d_marks : int;
  mutable d_writes : int;
  d_read : (string * int, unit) Hashtbl.t;  (* read before written here *)
  d_written : (string * int, unit) Hashtbl.t;
}

let create sn =
  let scalars = Hashtbl.create 16 in
  List.iter (fun (n, v) -> Hashtbl.replace scalars n (ref v)) sn.sn_scalars;
  let arrays = Hashtbl.create 16 in
  List.iter (fun (n, a) -> Hashtbl.replace arrays n (Array.copy a)) sn.sn_arrays;
  { d_scalars = scalars; d_arrays = arrays; d_log = []; d_marks = 0;
    d_writes = 0; d_read = Hashtbl.create 64; d_written = Hashtbl.create 64 }

let fail fmt =
  Format.kasprintf (fun s -> raise (Minic.Interp.Runtime_error s)) fmt

let scalar t x =
  match Hashtbl.find_opt t.d_scalars x with
  | Some r -> r
  | None -> fail "dlog: unbound scalar %s" x

let array t x =
  match Hashtbl.find_opt t.d_arrays x with
  | Some a -> a
  | None -> fail "dlog: unbound array %s" x

let note_read t key =
  if not (Hashtbl.mem t.d_written key) then Hashtbl.replace t.d_read key ()

let note_write t key = Hashtbl.replace t.d_written key ()

let store t =
  { Minic.Interp.gs_get =
      (fun x ->
        note_read t (x, 0);
        !(scalar t x));
    gs_set =
      (fun x v ->
        note_write t (x, 0);
        t.d_log <- W_scalar (x, v) :: t.d_log;
        t.d_writes <- t.d_writes + 1;
        scalar t x := v);
    gs_get_cell =
      (fun a i ->
        note_read t (a, i);
        (array t a).(i));
    gs_set_cell =
      (fun a i v ->
        note_write t (a, i);
        t.d_log <- W_cell (a, i, v) :: t.d_log;
        t.d_writes <- t.d_writes + 1;
        (array t a).(i) <- v);
    gs_length = (fun a -> Array.length (array t a)) }

let mark t =
  t.d_log <- Mark :: t.d_log;
  t.d_marks <- t.d_marks + 1

let marks t = t.d_marks
let writes t = t.d_writes

let replay store ~on_mark t =
  List.iter
    (fun e ->
      match e with
      | W_scalar (x, v) -> store.Minic.Interp.gs_set x v
      | W_cell (a, i, v) -> store.Minic.Interp.gs_set_cell a i v
      | Mark -> on_mark ())
    (List.rev t.d_log)

let regions_of tbl =
  let cells = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (name, idx) () ->
      let l = Option.value ~default:[] (Hashtbl.find_opt cells name) in
      Hashtbl.replace cells name (idx :: l))
    tbl;
  Hashtbl.fold (fun name l acc -> (name, Regions.of_list l) :: acc) cells []
  |> List.sort compare

let observed_reads t = regions_of t.d_read
let observed_writes t = regions_of t.d_written
