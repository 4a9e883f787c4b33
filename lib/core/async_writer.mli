(** Asynchronous write-out of checkpoint segments.

    The paper's protocol constructs checkpoints synchronously (blocking the
    application) but writes them "from the output stream to stable storage
    asynchronously". This module provides that second half: a background
    thread drains a bounded queue of encoded segments into an append-only
    log, so the application's checkpoint latency covers construction only.

    Ordering is preserved (the queue is FIFO); durability points are
    explicit ({!flush} blocks until everything enqueued so far has reached
    the file; each segment is additionally synced as it is written). If the
    writer thread fails (e.g. disk error), the error surfaces at the next
    {!enqueue} or {!flush}; segments still queued at that point are
    {e dropped}, never written after the failure — writing past a failed
    write could interleave garbage into the log. {!close} on a failed
    writer returns promptly instead of waiting for an impossible drain.

    Each segment is written and synced by itself, in its own step — the
    durability granularity the chain's crash model (invariant I7)
    assumes. *)

(** The multi-tenant service's group-commit policy
    ([Ickpt_service.Service.commit_mode]). The service commits inline on
    the submitting caller's thread, so nothing here reads it; the type
    stays in this module because callers outside the library build it by
    this name. *)
module Batch : sig
  type policy = {
    max_items : int;  (** epochs per batch; >= 1 *)
    max_bytes : int;  (** segment body bytes per batch; >= 1 *)
    linger : float;  (** must be [0.]: there is no drain thread to wait *)
  }
end

type t

val create : ?vfs:Vfs.t -> ?queue_limit:int -> path:string -> unit -> t
(** Start a writer appending to [path] (created if missing) through [vfs]
    (default {!Vfs.real}).
    [queue_limit] (default 64) bounds the number of in-flight segments;
    {!enqueue} blocks when the queue is full — back-pressure instead of
    unbounded memory. *)

val enqueue : t -> Segment.t -> unit
(** Hand a segment to the writer; returns as soon as it is queued.
    @raise Failure if the writer has failed or was closed. *)

val flush : t -> unit
(** Block until every segment enqueued so far is written and synced. *)

val pending : t -> int
(** Segments queued but not yet written. *)

val close : t -> unit
(** Flush, stop the thread, close the file. Idempotent. On a [Failed]
    writer this drops whatever is still queued and returns without
    attempting further writes. *)
