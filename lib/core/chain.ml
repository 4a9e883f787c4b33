open Ickpt_runtime
open Ickpt_stream

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

type t = {
  schema : Schema.t;
  mutable segments : Segment.t list;  (* newest first *)
  mutable next_seq : int;
}

let create schema = { schema; segments = []; next_seq = 0 }

let schema t = t.schema

type taken = { segment : Segment.t; stats : Checkpointer.stats }

let segments t = List.rev t.segments

let length t = List.length t.segments

let next_seq t = t.next_seq

let next t = if t.segments = [] then None else Some t.next_seq

type break = Not_full | Negative | Gap of int

let continuity ~next kind ~epoch =
  match next with
  | None when kind <> Segment.Full -> Some Not_full
  | None when epoch < 0 -> Some Negative
  | None -> None
  | Some n -> if epoch = n then None else Some (Gap n)

let describe ~epoch = function
  | Not_full -> "incremental checkpoint with no full base"
  | Negative -> Printf.sprintf "segment seq %d is negative" epoch
  | Gap n -> Printf.sprintf "segment seq %d, expected %d" epoch n

let append t seg =
  Option.iter
    (fun b -> invalid "%s" (describe b ~epoch:seg.Segment.seq))
    (continuity ~next:(next t) seg.Segment.kind ~epoch:seg.Segment.seq);
  t.segments <- seg :: t.segments;
  t.next_seq <- seg.Segment.seq + 1

let segment ?(out = Out_stream.create ()) ~kind ~seq write roots =
  Out_stream.reset out;
  write out roots;
  { Segment.kind;
    seq;
    roots = List.map (fun o -> o.Model.info.Model.id) roots;
    body = Out_stream.contents out }

let generic ?stats = function
  | Segment.Full -> Checkpointer.full_many ?stats
  | Segment.Incremental -> Checkpointer.incremental_many ?stats

let take ~kind t roots =
  let stats = Checkpointer.fresh_stats () in
  let segment = segment ~kind ~seq:t.next_seq (generic ~stats kind) roots in
  append t segment;
  { segment; stats }

let take_full t roots = take ~kind:Segment.Full t roots

let take_incremental t roots =
  if t.segments = [] then invalid "take_incremental: no full base";
  take ~kind:Segment.Incremental t roots

let body_bytes = List.fold_left (fun acc s -> acc + Segment.body_size s) 0

(* Continuity makes the oldest segment full: the cut always ends on one. *)
let since_full t ~epoch =
  let rec cut acc = function
    | [] -> acc
    | seg :: older when seg.Segment.seq > epoch -> cut acc older
    | seg :: older -> (
        match seg.Segment.kind with
        | Segment.Full -> seg :: acc
        | Segment.Incremental -> cut (seg :: acc) older)
  in
  cut [] t.segments

let since_full_bytes t =
  match since_full t ~epoch:max_int with
  | [] -> 0
  | _full :: incrementals -> body_bytes incrementals

let recover t =
  match t.segments with
  | [] -> Error "recover: empty chain"
  | newest :: _ -> (
      try
        Ok (Restore.of_segments t.schema (since_full t ~epoch:max_int)
              ~roots:newest.Segment.roots)
      with
      | Restore.Error msg -> Error ("restore: " ^ msg)
      | In_stream.Corrupt msg -> Error ("corrupt: " ^ msg))
