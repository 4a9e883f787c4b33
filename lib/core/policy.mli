(** Checkpoint-kind policies: when an application checkpoints repeatedly
    (e.g. once per analysis iteration, Section 4.2 of the paper), the policy
    decides whether the next checkpoint is full or incremental. The store
    ([Ickpt_cas.Store.open_ ?policy]) and the service
    ([Ickpt_service.Service.open_ ?policy]) run it themselves. *)

type t =
  | Always_full  (** the paper's "full checkpointing" baseline *)
  | Incremental_after_base
      (** one full checkpoint, then incrementals forever (the paper's
          incremental mode) *)
  | Full_every of int
      (** a full checkpoint every [n] checkpoints, incrementals between —
          bounds chain length and recovery time *)
  | Chain_bytes_limit of int
      (** take a full checkpoint whenever the accumulated incremental bytes
          since the last full exceed the limit *)

val pp : Format.formatter -> t -> unit

val decide : t -> next:int option -> since_full_bytes:int -> Segment.kind
(** The kind of a chain's next checkpoint, from the sequence number it
    expects and its incremental body bytes since the newest full: an
    in-memory chain's {!Chain.next} and {!Chain.since_full_bytes}, or a
    store's or service tenant's, derived from its committed entries
    ([Ickpt_cas.Epochs.chain]). Always [Full] on an empty chain
    ([next = None]), whatever the policy. *)
