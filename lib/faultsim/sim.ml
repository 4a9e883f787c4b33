open Ickpt_core

exception Crashed

exception Io_error

type mode = Torn | Drop_unsynced | Corrupt_tail

let modes = [ Torn; Drop_unsynced; Corrupt_tail ]

let pp_mode ppf m =
  Format.pp_print_string ppf
    (match m with
    | Torn -> "torn"
    | Drop_unsynced -> "drop-unsynced"
    | Corrupt_tail -> "corrupt-tail")

type fault =
  | No_fault
  | Crash_at of { op : int; byte : int; mode : mode }
  | Fail_at of { op : int; byte : int }

(* A file's bytes are [buf.[0 .. len-1]]: appends fill the buffer's spare
   room and double it when it runs out, so an append copies its own bytes,
   not the file. *)
type file = { mutable buf : Bytes.t; mutable len : int; mutable synced : int }

let file_of content =
  { buf = Bytes.of_string content;
    len = String.length content;
    synced = String.length content }

let empty () = { buf = Bytes.empty; len = 0; synced = 0 }

let content f = Bytes.sub_string f.buf 0 f.len

let append f data n =
  if f.len + n > Bytes.length f.buf then begin
    let b = Bytes.create (max (f.len + n) (2 * Bytes.length f.buf)) in
    Bytes.blit f.buf 0 b 0 f.len;
    f.buf <- b
  end;
  Bytes.blit_string data 0 f.buf f.len n;
  f.len <- f.len + n

type t = {
  mutex : Mutex.t;
  files : (string, file) Hashtbl.t;
  fault : fault;
  mutable ops : int;
  mutable log : (string * int) list;  (* newest first *)
  mutable crashed : bool;
  mutable frozen : (string * string) list;  (* durable snapshot at crash *)
}

let create ?(fault = No_fault) () =
  { mutex = Mutex.create ();
    files = Hashtbl.create 8;
    fault;
    ops = 0;
    log = [];
    crashed = false;
    frozen = [] }

let seeded ?fault entries =
  let t = create ?fault () in
  List.iter
    (fun (path, content) -> Hashtbl.replace t.files path (file_of content))
    entries;
  t

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let alive t = if t.crashed then raise Crashed

let find t path =
  match Hashtbl.find_opt t.files path with
  | Some f -> f
  | None -> raise (Sys_error (path ^ ": no such simulated file"))

(* The durable state per [mode]: synced bytes always survive; the unsynced
   tail survives as written (Torn), vanishes (Drop_unsynced), or survives
   with its last byte flipped (Corrupt_tail). Writes are append-only, so
   the lost/garbled region is always a contiguous tail. *)
let freeze t mode =
  t.crashed <- true;
  t.frozen <-
    Hashtbl.fold
      (fun path f acc ->
        let n = f.len in
        let survives =
          match mode with
          | Torn -> content f
          | Drop_unsynced -> Bytes.sub_string f.buf 0 (min f.synced n)
          | Corrupt_tail ->
              if n > f.synced then begin
                let b = Bytes.sub f.buf 0 n in
                Bytes.set b (n - 1)
                  (Char.chr (Char.code (Bytes.get b (n - 1)) lxor 0x5a));
                Bytes.unsafe_to_string b
              end
              else content f
        in
        (path, survives) :: acc)
      t.files []

(* Run one numbered op. [len] is its logged size; [apply n] performs the
   effect, applying only the first [n] "bytes" when crashing mid-op. *)
let op t ~kind ~len ~apply =
  alive t;
  let k = t.ops in
  t.ops <- k + 1;
  t.log <- (kind, len) :: t.log;
  match t.fault with
  | Crash_at { op; byte; mode } when op = k ->
      apply (min byte len);
      freeze t mode;
      raise Crashed
  | Fail_at { op; byte } when op = k ->
      apply (min byte len);
      raise Io_error
  | _ -> apply len

let writer t path =
  { Vfs.write =
      (fun data ->
        locked t (fun () ->
            let f = find t path in
            op t ~kind:"write" ~len:(String.length data)
              ~apply:(append f data)));
    sync =
      (fun () ->
        locked t (fun () ->
            let f = find t path in
            op t ~kind:"sync" ~len:1 ~apply:(fun n ->
                if n > 0 then f.synced <- f.len)));
    (* Closing a handle of a dead (or live) machine is always harmless:
       keeping it exception-free lets Fun.protect finalizers propagate the
       original Crashed instead of wrapping it in Finally_raised. *)
    close = (fun () -> ()) }

let vfs t =
  { Vfs.exists =
      (fun path ->
        locked t (fun () ->
            alive t;
            Hashtbl.mem t.files path));
    read_file =
      (fun path ->
        locked t (fun () ->
            alive t;
            content (find t path)));
    size =
      (fun path ->
        locked t (fun () ->
            alive t;
            (find t path).len));
    read_into =
      (fun path buf runs ->
        locked t (fun () ->
            alive t;
            let f = find t path in
            List.iter
              (fun (pos, off, len) ->
                Vfs.check_window path ~size:f.len ~pos ~len buf ~off;
                Bytes.blit f.buf pos buf off len)
              runs));
    open_append =
      (fun path ->
        locked t (fun () ->
            alive t;
            if not (Hashtbl.mem t.files path) then
              Hashtbl.replace t.files path (empty ()));
        writer t path);
    open_trunc =
      (fun path ->
        locked t (fun () ->
            alive t;
            Hashtbl.replace t.files path (empty ()));
        writer t path);
    truncate =
      (fun path ~len ->
        locked t (fun () ->
            let f = find t path in
            op t ~kind:"truncate" ~len:1 ~apply:(fun n ->
                if n > 0 then begin
                  f.len <- min len f.len;
                  f.synced <- min f.synced len
                end)));
    rename =
      (fun ~src ~dst ->
        locked t (fun () ->
            let f = find t src in
            op t ~kind:"rename" ~len:1 ~apply:(fun n ->
                if n > 0 then begin
                  Hashtbl.replace t.files dst f;
                  Hashtbl.remove t.files src
                end)));
    remove =
      (fun path ->
        locked t (fun () ->
            ignore (find t path);
            op t ~kind:"remove" ~len:1 ~apply:(fun n ->
                if n > 0 then Hashtbl.remove t.files path))) }

let crashed t = locked t (fun () -> t.crashed)

let ops t = locked t (fun () -> t.ops)

let op_log t = locked t (fun () -> List.rev t.log)

let durable t =
  locked t (fun () ->
      if t.crashed then t.frozen
      else
        Hashtbl.fold (fun path f acc -> (path, content f) :: acc) t.files [])

let restart t = seeded (durable t)
