(* Shared helpers: a small class hierarchy, random object graphs and random
   mutation scripts, used by the runtime/core/jspec property tests. *)

open Ickpt_runtime

type env = {
  schema : Schema.t;
  heap : Heap.t;
  leaf : Model.klass;  (* 1 int, 0 children *)
  pair : Model.klass;  (* 2 ints, 2 children *)
  node : Model.klass;  (* pair + 1 own int + 1 own child *)
}

let make_env () =
  let schema = Schema.create () in
  let leaf = Schema.declare schema ~name:"Leaf" ~ints:1 ~children:0 () in
  let pair = Schema.declare schema ~name:"Pair" ~ints:2 ~children:2 () in
  let node = Schema.declare schema ~name:"Node" ~parent:pair ~ints:1 ~children:1 () in
  let heap = Heap.create schema in
  { schema; heap; leaf; pair; node }

(* A pure description of an object tree, generated by qcheck and then built
   into a heap. *)
type tree =
  | Leaf of int
  | Pair of int * int * tree option * tree option
  | Node of int * int * int * tree option * tree option * tree option

let rec build env tree =
  let child = Option.map (build env) in
  match tree with
  | Leaf v ->
      let o = Heap.alloc env.heap env.leaf in
      o.Model.ints.(0) <- v;
      o
  | Pair (a, b, l, r) ->
      let o = Heap.alloc env.heap env.pair in
      o.Model.ints.(0) <- a;
      o.Model.ints.(1) <- b;
      o.Model.children.(0) <- child l;
      o.Model.children.(1) <- child r;
      o
  | Node (a, b, c, l, m, r) ->
      let o = Heap.alloc env.heap env.node in
      o.Model.ints.(0) <- a;
      o.Model.ints.(1) <- b;
      o.Model.ints.(2) <- c;
      o.Model.children.(0) <- child l;
      o.Model.children.(1) <- child m;
      o.Model.children.(2) <- child r;
      o

let tree_gen : tree QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self n ->
         let sub = if n <= 1 then return None else map Option.some (self (n / 2)) in
         if n <= 1 then map (fun v -> Leaf v) small_int
         else
           frequency
             [ (2, map (fun v -> Leaf v) small_int);
               ( 3,
                 map2
                   (fun (a, b) (l, r) -> Pair (a, b, l, r))
                   (pair small_int small_int) (pair sub sub) );
               ( 2,
                 map3
                   (fun (a, b, c) (l, m) r -> Node (a, b, c, l, m, r))
                   (triple small_int small_int small_int) (pair sub sub) sub
               ) ])

(* Every object of the graph rooted at [o], each once, preorder. *)
let all_objects root =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec go o =
    if not (Hashtbl.mem seen o.Model.info.Model.id) then begin
      Hashtbl.add seen o.Model.info.Model.id ();
      acc := o :: !acc;
      Array.iter (function None -> () | Some c -> go c) o.Model.children
    end
  in
  go root;
  List.rev !acc

(* A mutation script: pairs of (object index, slot seed, value). Applied
   against the list of all objects with barriers. *)
type mutation = { victim : int; slot : int; value : int }

let mutation_gen =
  let open QCheck2.Gen in
  map3
    (fun victim slot value -> { victim; slot; value })
    small_nat small_nat small_int

let apply_mutations root mutations =
  let objs = Array.of_list (all_objects root) in
  List.iter
    (fun { victim; slot; value } ->
      let o = objs.(victim mod Array.length objs) in
      let n = Array.length o.Model.ints in
      if n > 0 then Barrier.set_int o (slot mod n) value)
    mutations

let checkpoint_body roots ~full =
  let d = Ickpt_stream.Out_stream.create () in
  if full then Ickpt_core.Checkpointer.full_many d roots
  else Ickpt_core.Checkpointer.incremental_many d roots;
  Ickpt_stream.Out_stream.contents d

let contains_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* File mutations for fuzzing the store's and the service's files: a
   power loss (truncate), a bit rot (flip) and stray bytes (splice). *)
type fuzz_op = Truncate of int | Flip of int | Splice of string

let fuzz_ops_gen =
  let open QCheck2.Gen in
  let op_gen =
    let* which = int_range 0 2 in
    match which with
    | 0 -> map (fun p -> Truncate p) nat
    | 1 -> map (fun p -> Flip p) nat
    | _ -> map (fun s -> Splice s) (string_size (int_range 1 12))
  in
  list_size (int_range 1 3) op_gen

let apply_fuzz_op data = function
  | Truncate p -> String.sub data 0 (p mod (String.length data + 1))
  | Flip p ->
      if data = "" then data
      else begin
        let b = Bytes.of_string data in
        let i = p mod String.length data in
        Bytes.set b i
          (Char.chr (Char.code (Bytes.get b i) lxor (1 + (p mod 255))));
        Bytes.to_string b
      end
  | Splice s -> data ^ s

(* A store path in the temp directory, with no store files left there. *)
let temp_store name =
  let path = Filename.concat (Filename.get_temp_dir_name ()) name in
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ Ickpt_cas.Store.pack_path path; Ickpt_cas.Store.index_path path ];
  path

let remove_store path =
  List.iter Sys.remove
    [ Ickpt_cas.Store.pack_path path; Ickpt_cas.Store.index_path path ]

(* The newest epoch of the store at [path], restored by a fresh open. *)
let restore_latest schema ~path =
  let store = Ickpt_cas.Store.open_ schema ~path in
  Option.map
    (fun epoch -> Ickpt_cas.Store.restore store ~epoch)
    (Ickpt_cas.Store.latest_epoch store)

(* The bytes [write] appends to a fresh stream, e.g. one index frame. *)
let stream_bytes write =
  let d = Ickpt_stream.Out_stream.create () in
  write d;
  Ickpt_stream.Out_stream.contents d
