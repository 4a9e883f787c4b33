type writer = {
  write : string -> unit;
  sync : unit -> unit;
  close : unit -> unit;
}

type t = {
  exists : string -> bool;
  read_file : string -> string;
  size : string -> int;
  read_into : string -> bytes -> (int * int * int) list -> unit;
  open_append : string -> writer;
  open_trunc : string -> writer;
  truncate : string -> len:int -> unit;
  rename : src:string -> dst:string -> unit;
  remove : string -> unit;
}

exception Out_of_range of string

let out_of_range path ~pos ~len ~size =
  raise
    (Out_of_range
       (Printf.sprintf "%s: %d bytes at %d, past the file's %d" path len pos
          size))

(* A read of [len] bytes at [pos] of a file of [size] bytes, into [buf] at
   [off]: a window outside the file is the caller's data talking
   (Out_of_range); one outside the buffer is a bug (Invalid_argument). *)
let check_file path ~size ~pos ~len =
  if pos < 0 || len < 0 || pos > size - len then
    out_of_range path ~pos ~len ~size

let check_window path ~size ~pos ~len buf ~off =
  check_file path ~size ~pos ~len;
  if off < 0 || off > Bytes.length buf - len then
    invalid_arg "Vfs.read_into: window outside the buffer"

let writer_of_channel oc =
  { write = (fun s -> output_string oc s);
    sync =
      (fun () ->
        flush oc;
        (* Some targets (pipes, odd filesystems) reject fsync; losing the
           barrier there is no worse than the pre-fsync behaviour. *)
        try Unix.fsync (Unix.descr_of_out_channel oc)
        with Unix.Unix_error _ | Sys_error _ -> ());
    close = (fun () -> try close_out oc with Sys_error _ -> ()) }

let real =
  { exists = Sys.file_exists;
    read_file =
      (fun path ->
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic)));
    size = (fun path -> (Unix.stat path).Unix.st_size);
    read_into =
      (fun path buf runs ->
        let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let size = (Unix.fstat fd).Unix.st_size in
            List.iter
              (fun (pos, off, len) ->
                check_window path ~size ~pos ~len buf ~off;
                ignore (Unix.lseek fd pos Unix.SEEK_SET : int);
                let rec go off len =
                  if len > 0 then
                    match Unix.read fd buf off len with
                    | 0 -> out_of_range path ~pos ~len ~size
                    | n -> go (off + n) (len - n)
                in
                go off len)
              runs));
    open_append =
      (fun path ->
        writer_of_channel
          (open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path));
    open_trunc = (fun path -> writer_of_channel (open_out_bin path));
    truncate = (fun path ~len -> Unix.truncate path len);
    rename = (fun ~src ~dst -> Sys.rename src dst);
    remove = Sys.remove }

let contents t path = if t.exists path then t.read_file path else ""

let read_at t path ~pos ~len =
  check_file path ~size:(t.size path) ~pos ~len;
  let buf = Bytes.create len in
  t.read_into path buf [ (pos, 0, len) ];
  Bytes.unsafe_to_string buf

let temp_of path = path ^ ".tmp"

type opening = Append | Trunc

let write_synced t opening path f =
  let w =
    match opening with Append -> t.open_append path | Trunc -> t.open_trunc path
  in
  Fun.protect ~finally:w.close (fun () ->
      f w.write;
      w.sync ())
