(** The persistent epoch index: one append-only file of checksummed entries,
    one per checkpoint epoch. An entry records everything needed to
    materialize or diff its epoch without replaying the segment chain:

    - the ordered list of chunk keys whose bodies concatenate to the
      epoch's segment body;
    - a {e directory delta}: for every object record written in this epoch,
      the record id and its position ([chunk index in this entry] ×
      [byte offset within the chunk]). Folding directory deltas
      newest-wins from the nearest full epoch yields the per-object
      directory of any epoch.

    In memory the delta is one flat [int array] of [(id, chunk, off)]
    triples, decoded straight from the varints: one block per entry, not
    a record and a list cell per object.

    Wire layout of one entry:
    {v
    magic   fixed32  "ICKX"
    version byte
    epoch   varint
    kind    byte     0 = full, 1 = incremental (as Segment)
    nroots  varint   then that many root-id varints
    nchunks varint   then that many chunk-key varints
    ndir    varint   then ndir triples (id, chunk, off) of varints
    crc     fixed32  CRC-32 of everything above
    v}

    A count claiming more items than bytes are left is
    {!Ickpt_stream.In_stream.Corrupt} before anything is allocated for it.

    Appending an entry (write + sync) is the {e commit point} of an epoch:
    chunks are appended to the pack first, so a crash between the two
    leaves orphaned chunks (reclaimed by the next GC) but never a
    committed epoch with missing data.

    This module is the wire format only. Frames are
    {!Ickpt_stream.Out_stream.framed} and read back with
    {!Ickpt_stream.In_stream.fold_intact}. Committing a batch of entries
    (pack first, then one synced index write), which entries form a valid
    chain, and the truncation of a torn or invalid tail on reopen are
    {!Epochs}. *)

open Ickpt_core

type entry = {
  epoch : int;
  kind : Segment.kind;
  roots : int list;
  chunks : int list;  (** chunk keys, in body order *)
  dir : int array;
      (** directory delta, in record write order: triple [i] is the object
          record id [dir.(3i)], its chunk's index in [chunks]
          [dir.(3i+1)] and its byte offset within that chunk
          [dir.(3i+2)] *)
}

val encode : entry -> string
(** @raise Invalid_argument if [dir]'s length is not a multiple of 3. *)

val decode : string -> pos:int -> entry * int
(** One entry at [pos] and the offset just past it.
    @raise Ickpt_stream.In_stream.Corrupt unless an intact entry is there. *)

val load : Vfs.t -> string -> entry list * int
(** Every intact entry of an index file (file order) and the byte offset
    of the first undecodable one — the safe truncation point. A missing
    file is the empty index. Performs no writes; the caller decides
    whether to truncate. *)

val write_staged : Vfs.t -> path:string -> entry list -> string
(** Write a fresh index holding exactly [entries] to the staging path
    ({!Ickpt_core.Storage.temp_of}[ ~path]), sync it, and return that
    path. Used by GC; the caller commits by renaming over [path]. *)

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

val encode_mux : mux_entry -> string

val decode_mux : string -> pos:int -> mux_entry * int

val load_mux : Vfs.t -> string -> mux_entry list * int
(** {!load} for a multiplexed index file. Performs no writes. *)
