(** The storage layer's view of the filesystem, as a value.

    Everything the store ([Ickpt_cas.Store], its pack and epoch index) and
    the service ([Ickpt_service.Service]) do to stable storage goes through
    one of these records, so a test harness can swap the real filesystem
    for a simulated one that injects crashes and I/O errors at any write
    boundary (see [Ickpt_faultsim.Sim]). The default everywhere is
    {!real}.

    Every record file (pack, epoch indexes, tenant catalog, service meta)
    is written through {!write_synced} and read back through {!contents}
    and [Ickpt_stream.In_stream.fold_intact], except the pack, which is
    read positionally ({!field-read_into}, {!read_at}) so that nothing the
    size of the pack is ever held in memory; a file rewritten whole (a
    GC'd pack or index) is staged at {!temp_of} and renamed into place.

    The durability contract the storage layer relies on:
    - [writer.write] appends bytes to the open file (visible to subsequent
      reads, but not necessarily durable across a power loss);
    - [writer.sync] is the durability point: everything written so far
      survives a crash once it returns;
    - [rename] atomically replaces the destination — after a crash the
      destination holds either the old or the new content, never a mix. *)

type writer = {
  write : string -> unit;  (** append bytes at the end of the file *)
  sync : unit -> unit;  (** flush and fsync: the durability barrier *)
  close : unit -> unit;  (** release the handle; must not raise *)
}

type t = {
  exists : string -> bool;
  read_file : string -> string;  (** whole contents; raises if missing *)
  size : string -> int;  (** length in bytes; raises if missing *)
  read_into : string -> bytes -> (int * int * int) list -> unit;
      (** [read_into path buf runs] copies, for each [(pos, off, len)] of
          [runs] in order, the file's bytes [pos .. pos+len-1] into [buf]
          at [off] — into the caller's buffer, so a streamed read
          allocates nothing per run. All of a fetch's runs are one call:
          {!real} opens the file and reads its length once for them all.
          Sees written-but-unsynced bytes, as [read_file] does.
          @raise Out_of_range if a window is not inside the file (the
          runs before it are copied).
          @raise Invalid_argument if it is not inside [buf]. Raises if
          the file is missing. *)
  open_append : string -> writer;  (** append mode, create if missing *)
  open_trunc : string -> writer;  (** truncate-or-create *)
  truncate : string -> len:int -> unit;  (** cut the file to [len] bytes *)
  rename : src:string -> dst:string -> unit;  (** atomic replace *)
  remove : string -> unit;
}

exception Out_of_range of string
(** A positional read outside the file: the message names the file, the
    window and the file's length. *)

val check_window :
  string -> size:int -> pos:int -> len:int -> bytes -> off:int -> unit
(** [check_window path ~size ~pos ~len buf ~off]: the bounds check
    {!field-read_into} makes per run, for a file of [size] bytes.
    @raise Out_of_range if [pos .. pos+len-1] is not inside the file.
    @raise Invalid_argument if [off .. off+len-1] is not inside [buf]. *)

val real : t
(** The actual filesystem. [sync] flushes the channel and [fsync]s the
    descriptor; [rename] is POSIX [rename(2)] (atomic on one filesystem). *)

val contents : t -> string -> string
(** A file's bytes; a missing file reads as empty. *)

val read_at : t -> string -> pos:int -> len:int -> string
(** The file's bytes [pos .. pos+len-1] as a fresh string
    ({!field-read_into}).
    @raise Out_of_range if they are not all inside the file. *)

val temp_of : string -> string
(** The sibling path a rewrite of the given file is staged at before the
    rename that commits it. It never holds committed data, so opening a
    store removes one a crash left behind. *)

type opening = Append | Trunc

val write_synced : t -> opening -> string -> ((string -> unit) -> unit) -> unit
(** [write_synced t opening path f] opens [path] (appending, or truncating
    it), hands [f] the writer's [write], then syncs: what [f] wrote is
    durable when this returns. The handle is closed on success and on
    exception. *)
