(** The persistent epoch index: one append-only file of checksummed entries,
    one per checkpoint epoch, and the pack's table of contents. An entry
    records everything needed to locate, materialize or diff its epoch
    without replaying the segment chain:

    - the ordered list of chunk keys whose bodies concatenate to the
      epoch's segment body;
    - the chunks it is the first committed entry to reference, {e located}:
      where in the pack the first of them starts ([at]), then each one's
      length and CRC-32. They lie back to back from [at], in chunk order,
      so [at] plus their lengths is where the entry's pack bytes end.
      Every chunk any committed entry names is located by exactly one
      committed entry, so the entries alone rebuild the pack's key table,
      and the pack holds bare chunk bodies ({!Pack});
    - a {e directory delta}: for every object record written in this epoch,
      the record id and its position ([chunk index in this entry] ×
      [byte offset within the chunk]). Folding directory deltas
      newest-wins from the nearest full epoch yields the per-object
      directory of any epoch.

    A {e whole} entry's chunks tile its segment body, in order. A
    {e folded} full ({!Epochs.commit}) names each chunk once, in order of
    first reference, and its directory lists the body's records in body
    order as runs, each naming the chunk it lies in by its index in
    [chunks]: records unchanged since the chain's committed state stay
    where they already lie, in chunks older entries located, and only the
    rest are in chunks of its own. Either way the directory of a full is
    complete, and [size] is the body's length.

    The located chunks and the directory are kept coded. Decoding an entry
    reads its header fields and keeps both as slices of the bytes it was
    read from; {!iter_located} and {!iter_dir} decode them, so a reopen
    decodes the locations (to build the pack's table) but never the
    records of epochs no restore folds.

    Wire layout of one entry (format version 4):
    {v
    magic    fixed32  "ICKX"
    version  byte     4
    epoch    varint
    kind     byte     0 = full, 1 = incremental, 2 = folded full
    size     varint   the segment body's length
    nroots   varint   then that many root-id varints
    nchunks  varint   then that many chunk-key varints
    at       varint   pack offset of the first chunk this entry locates
    nlocated varint   located chunks
    loclen   varint   then loclen bytes: per located chunk, in chunk order,
                        (index - previous index) varint (the previous
                        index starts at -1), length varint, CRC-32 fixed32
    records  varint   directory records
    dirlen   varint   then dirlen bytes of directory. Whole:
                        per chunk, in chunk order, a record group.
                        Folded: a run count, then per run in body
                        order the chunk's index and a record group.
                        A record group: a record count, then per
                        record (id - previous id) and
                        (offset - previous offset in this group)
    crc      fixed32  CRC-32 of everything above
    v}
    Every varint is zigzag ({!Ickpt_stream.Varint}); the previous id
    starts at 0 once per entry, the previous offset at 0 once per group. A
    count claiming more items than bytes are left (a located chunk takes
    six bytes at least, a record two) is {!Ickpt_stream.In_stream.Corrupt}
    before anything is allocated for it. Versions 1 and 2 (chunks located
    by self-describing pack frames) and 3 (no body size, no folded fulls)
    are not read: {!reject_older} names them, and opening a store or
    service holding one is a typed error.

    Appending an entry (write + sync) is the {e commit point} of an epoch:
    chunks are appended to the pack first, so a crash between the two
    leaves pack bytes no entry locates, past the committed length, which
    the next reopen cuts; never a committed epoch with missing data.

    This module is the wire format only. Frames are
    {!Ickpt_stream.Out_stream.framed} and read back with
    {!Ickpt_stream.In_stream.fold_intact}. Committing a batch of entries
    (pack first, then one synced index write), which entries form a valid
    chain, and the truncation of a torn or invalid tail on reopen are
    {!Epochs}. *)

open Ickpt_core

exception Unsupported_version of string
(** An index file in an older format version (raised by {!Epochs.load});
    the message names the file and the version. *)

type located
(** An entry's located chunks, coded: a slice of the bytes they were read
    from or coded into. *)

val code_located : (int * int * int) list -> located
(** Code the located chunks from [(chunk index, length, CRC-32)] triples
    in ascending chunk index. *)

type dir
(** A coded directory delta: a slice of the bytes it was read from or
    coded into. *)

val code_dir : int array list -> dir
(** Code a directory from each chunk's flat [(record id, offset within the
    chunk)] pairs, in chunk order (as {!Chunk.t}[.records]: record [r]'s
    id at [2r], its offset at [2r+1]), into a stream presized for them. *)

val code_runs :
  chunks:int array -> counts:int array -> ids:int array -> offs:int array ->
  dir
(** Code a folded directory from its runs in body order: run [k] is
    [counts.(k)] records in the chunk whose index in the entry's [chunks]
    is [chunks.(k)]. Record [r] (in body order, from 0) has id [ids.(r)]
    and lies at offset [offs.(r)] in its chunk; the counts sum to the
    records. *)

val dir_records : dir -> int
(** Records in the directory. *)

type entry = {
  epoch : int;
  kind : Segment.kind;
  folded : bool;  (** a folded full: [chunks] each once, [dir] as runs *)
  size : int;  (** the segment body's length *)
  roots : int list;
  chunks : int list;
      (** chunk keys: in body order (whole), or each once in order of
          first reference (folded) *)
  at : int;  (** pack offset of the first chunk this entry locates *)
  located : located;  (** the chunks it is the first to reference *)
  dir : dir;  (** directory delta, coded *)
}

val iter_located :
  entry -> (int -> pos:int -> len:int -> crc:int -> unit) -> unit
(** [iter_located e f] decodes [e]'s located chunks, calling
    [f key ~pos ~len ~crc] per chunk in pack order: [pos] is where its
    body starts in the pack.
    @raise Ickpt_stream.In_stream.Corrupt if an index does not name one
    of [e.chunks] past the previous one, a length is negative, or the
    coding does not hold exactly its count (after calling [f] on whatever
    decoded before the fault). *)

val located_count : entry -> int
(** How many chunks the entry locates, as its coding counts them: read
    without decoding anything. *)

val located_end : entry -> int
(** Where the entry's located chunks end in the pack ([at] when it
    locates none), decoding them. A reopen takes each entry's end from
    {!Pack.reload} instead, which decodes them once to build the key
    table. @raise Ickpt_stream.In_stream.Corrupt as {!iter_located}. *)

val iter_dir : entry -> (int -> int -> int -> unit) -> unit
(** [iter_dir e f] decodes [e]'s directory, calling [f id chunk off] per
    record in body order: [chunk] indexes [e.chunks], [off] is the byte
    offset within that chunk.
    @raise Ickpt_stream.In_stream.Corrupt if the directory does not hold
    exactly one record group per chunk (whole) or per run naming one of
    [e.chunks] (folded), and {!dir_records} records (after calling [f] on
    whatever decoded before the fault). *)

(** {1 Chain rules} over one chain's entries, oldest first. *)

val newest : entry list -> int option
(** The newest epoch, if any. *)

val newest_full : entry list -> epoch:int -> int
(** The newest full epoch at or before [epoch] — the base a restore,
    resume or GC starts from. The oldest entry's epoch when none is
    full. *)

val since_full : entry list -> epoch:int -> entry list
(** The entries from {!newest_full} up to [epoch]; [~epoch:max_int] gives
    the suffix a chain resumes from. *)

val encode : Ickpt_stream.Out_stream.t -> entry -> unit
(** Append the entry's frame to the stream. *)

val encode_batch :
  (Ickpt_stream.Out_stream.t -> 'a -> unit) -> entry:('a -> entry) ->
  'a list -> string
(** [encode_batch encode ~entry items]: the frames of [items] back to
    back, as [encode] appends them ({!encode} or {!encode_mux}), into one
    stream presized to hold them all. *)

val decode : ?prev:int list -> string -> pos:int -> entry * int
(** One entry at [pos] and the offset just past it. The entry's directory
    is a slice of the given string. [prev] (default [[]]) is the roots of
    the previous entry of the same chain: when this entry's roots are the
    same ids, its [roots] is that very list, and no list cell is
    allocated for them.
    @raise Ickpt_stream.In_stream.Corrupt unless an intact entry is there. *)

val load : Vfs.t -> string -> entry list * int
(** Every intact entry of an index file (file order) and the byte offset
    of the first undecodable one — the safe truncation point. A missing
    file is the empty index. Performs no writes; the caller decides
    whether to truncate. *)

val write_staged : Vfs.t -> path:string -> entry list -> string * int
(** Write a fresh index holding exactly [entries] to the staging path
    ({!Ickpt_core.Vfs.temp_of}), sync it, and return that path and its
    length. Used by GC; the caller commits by renaming over
    [path]. *)

val reject_older : path:string -> string -> unit
(** @raise Unsupported_version if the bytes of the index file [path] begin
    with a plain or multiplexed entry header of an older format version
    than this build's. *)

(** {1 Multiplexed (per-shard) index}

    The multi-tenant service stores many tenants' epoch entries in one
    per-shard file, interleaved in commit order. The wire format is the
    plain entry with magic ["ICKM"] and a tenant-id varint between the
    version byte and the payload; per-tenant commit-point ordering is the
    file order restricted to that tenant. A batch ({!Epochs.commit}) is
    {e one} write and {e one} sync — the group-commit point shared by
    every entry in the batch — so a torn tail cuts whole entries off the
    end and every tenant's surviving entries remain a committed prefix
    (the pack is synced before the index batch, as for the plain
    store). *)

type mux_entry = { m_tenant : int; m_entry : entry }

val encode_mux : Ickpt_stream.Out_stream.t -> mux_entry -> unit

val decode_mux :
  ?prev:(int -> int list) -> string -> pos:int -> mux_entry * int
(** {!decode} for a multiplexed entry; [prev tenant] is the roots of that
    tenant's previous entry. *)

val load_mux : Vfs.t -> string -> mux_entry list * int
(** {!load} for a multiplexed index file. Performs no writes. *)
