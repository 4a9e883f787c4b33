module Batch = struct
  type policy = { max_items : int; max_bytes : int; linger : float }
end

type state = Running | Closed | Failed of exn

type t = {
  mutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  drained : Condition.t;
  queue : Segment.t Queue.t;
  queue_limit : int;
  w : Vfs.writer;
  mutable state : state;
  mutable in_flight : bool;  (* a segment is being written *)
  mutable thread : Thread.t option;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Each segment is written and synced by itself — the durability
   granularity the chain's crash model (invariant I7) assumes. *)
let drain_loop t =
  let rec next () =
    Mutex.lock t.mutex;
    let rec wait () =
      match t.state with
      | Failed _ ->
          (* Never write into a broken file: segments written after a
             failure would each fail in turn (and on a half-dead device
             could even land as garbage past the failure point). They are
             dropped; the enqueuer learns of the loss from the Failed
             state. *)
          None
      | (Running | Closed) when not (Queue.is_empty t.queue) ->
          let seg = Queue.pop t.queue in
          t.in_flight <- true;
          Condition.broadcast t.not_full;
          Some seg
      | Closed -> None
      | Running ->
          Condition.wait t.not_empty t.mutex;
          wait ()
    in
    let seg = wait () in
    Mutex.unlock t.mutex;
    match seg with
    | None -> ()
    | Some seg ->
        (match
           t.w.Vfs.write (Segment.encode seg);
           t.w.Vfs.sync ()
         with
        | () ->
            locked t (fun () ->
                t.in_flight <- false;
                Condition.broadcast t.drained)
        | exception e ->
            locked t (fun () ->
                t.in_flight <- false;
                t.state <- Failed e;
                Condition.broadcast t.drained;
                Condition.broadcast t.not_full));
        next ()
  in
  next ()

let create ?(vfs = Vfs.real) ?(queue_limit = 64) ~path () =
  if queue_limit < 1 then invalid_arg "Async_writer.create: queue_limit < 1";
  let t =
    { mutex = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      drained = Condition.create ();
      queue = Queue.create ();
      queue_limit;
      w = vfs.Vfs.open_append path;
      state = Running;
      in_flight = false;
      thread = None }
  in
  t.thread <- Some (Thread.create drain_loop t);
  t

let check_state t =
  match t.state with
  | Running -> ()
  | Closed -> failwith "Async_writer: closed"
  | Failed e -> failwith ("Async_writer: writer failed: " ^ Printexc.to_string e)

let enqueue t seg =
  locked t (fun () ->
      check_state t;
      while Queue.length t.queue >= t.queue_limit && t.state = Running do
        Condition.wait t.not_full t.mutex
      done;
      check_state t;
      Queue.push seg t.queue;
      Condition.signal t.not_empty)

let flush t =
  locked t (fun () ->
      while
        (t.in_flight || not (Queue.is_empty t.queue)) && t.state = Running
      do
        Condition.wait t.drained t.mutex
      done;
      match t.state with Failed _ -> check_state t | Running | Closed -> ())

let pending t =
  locked t (fun () -> Queue.length t.queue + Bool.to_int t.in_flight)

let close t =
  let join =
    locked t (fun () ->
        (match t.state with Running -> t.state <- Closed | Closed | Failed _ -> ());
        Condition.broadcast t.not_empty;
        Condition.broadcast t.not_full;
        let thread = t.thread in
        t.thread <- None;
        thread)
  in
  match join with
  | None -> ()
  | Some thread ->
      (* On Closed the drain thread empties the queue before exiting; on
         Failed it exits immediately without writing, so closing a failed
         writer never blocks on an undrainable queue. *)
      Thread.join thread;
      t.w.Vfs.close ()
