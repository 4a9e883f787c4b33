(** One int table: maps int keys to dense {e slots} 0, 1, 2, … in
    insertion order, with no per-key allocation.

    A slot is what the users index their own flat arrays by: the restore
    directory (a record's source and offset per slot), the pack's key
    table (a chunk's offset, length and CRC per slot), the heap registry
    (the object per slot) and the full checkpoint's visited set (no
    payload at all). Keys cannot be removed one by one; a user that drops
    keys builds a fresh table from the ones it keeps, or {!clear}s it.

    Open addressing with linear probing, at most half full. Keys come from
    disk, so the bucket index must not degrade on adversarial ones (all
    multiples of [2^k], negative ids): a multiply-and-fold puts every bit
    of the key into the low bits the mask keeps. *)

type t

val create : int -> t
(** An empty table presized for that many keys: adding up to that many
    neither grows nor rehashes it. *)

val length : t -> int
(** Keys added so far; the next new key gets this slot. *)

val clear : t -> unit
(** Remove every key, keeping the table's capacity: refilling it with as
    many keys as it held neither grows nor rehashes it. *)

val find : t -> int -> int
(** The slot of a key, or [-1] if it is absent. *)

val mem : t -> int -> bool

val add : t -> int -> int
(** [add t key] is the slot of [key], which becomes the next slot
    ({!length} before the call) if it was absent. One probe either way:
    [add t k = length t] (read before) tells a new key from an old one. *)

val key : t -> int -> int
(** The key of a slot. @raise Invalid_argument outside [0 .. length-1]. *)

val iter : t -> (int -> int -> unit) -> unit
(** [f slot key] per slot, in slot (insertion) order. *)
