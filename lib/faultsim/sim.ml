open Ickpt_core

exception Crashed

exception Io_error of string

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
  | Fail_write_at of int

type file = { mutable content : string; mutable synced : int }

type t = {
  mutex : Mutex.t;
  files : (string, file) Hashtbl.t;
  fault : fault;
  write_delay : float;
  mutable ops : int;
  mutable log : (string * int) list;  (* newest first *)
  mutable crashed : bool;
  mutable frozen : (string * string) list;  (* durable snapshot at crash *)
}

let create ?(fault = No_fault) ?(write_delay = 0.) () =
  { mutex = Mutex.create ();
    files = Hashtbl.create 8;
    fault;
    write_delay;
    ops = 0;
    log = [];
    crashed = false;
    frozen = [] }

let seeded ?fault entries =
  let t = create ?fault () in
  List.iter
    (fun (path, content) ->
      Hashtbl.replace t.files path { content; synced = String.length content })
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
        let n = String.length f.content in
        let survives =
          match mode with
          | Torn -> f.content
          | Drop_unsynced -> String.sub f.content 0 (min f.synced n)
          | Corrupt_tail ->
              if n > f.synced then begin
                let b = Bytes.of_string f.content in
                Bytes.set b (n - 1)
                  (Char.chr (Char.code (Bytes.get b (n - 1)) lxor 0x5a));
                Bytes.to_string b
              end
              else f.content
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
  | Fail_write_at op when k >= op && (kind = "write" || kind = "sync") ->
      raise (Io_error (Printf.sprintf "injected %s failure at op %d" kind k))
  | _ -> apply len

let writer t path =
  { Vfs.write =
      (fun data ->
        if t.write_delay > 0. then Thread.delay t.write_delay;
        locked t (fun () ->
            let f = find t path in
            op t ~kind:"write" ~len:(String.length data) ~apply:(fun n ->
                f.content <- f.content ^ String.sub data 0 n)));
    sync =
      (fun () ->
        locked t (fun () ->
            let f = find t path in
            op t ~kind:"sync" ~len:1 ~apply:(fun n ->
                if n > 0 then f.synced <- String.length f.content)));
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
            (find t path).content));
    open_append =
      (fun path ->
        locked t (fun () ->
            alive t;
            if not (Hashtbl.mem t.files path) then
              Hashtbl.replace t.files path { content = ""; synced = 0 });
        writer t path);
    open_trunc =
      (fun path ->
        locked t (fun () ->
            alive t;
            Hashtbl.replace t.files path { content = ""; synced = 0 });
        writer t path);
    truncate =
      (fun path ~len ->
        locked t (fun () ->
            let f = find t path in
            op t ~kind:"truncate" ~len:1 ~apply:(fun n ->
                if n > 0 then begin
                  f.content <- String.sub f.content 0 (min len (String.length f.content));
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
        Hashtbl.fold (fun path f acc -> (path, f.content) :: acc) t.files [])

let restart t = seeded (durable t)
