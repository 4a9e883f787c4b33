(** Content hashing for the chunk store: FNV-1a with the 64-bit constants,
    folded into OCaml's native [int] (arithmetic is mod 2{^63} on 64-bit
    platforms). CRC-32 ({!Crc32}) detects {e accidental} corruption of a
    frame; chunk keys instead need a hash wide enough that two distinct
    chunk bodies colliding is negligible over a store's lifetime — 63 bits
    of FNV-1a gives a ~2{^-63} per-pair collision probability, and the
    store verifies dedup hits byte-for-byte anyway (see
    [Ickpt_cas.Store]), so a collision is detected, never silent. *)

val init : int
(** The FNV-1a offset basis (folded to the native int width). *)

val string : ?h:int -> string -> int
(** [string s] hashes all of [s]; [?h] continues a running hash, so
    [string ~h:(string a) b = string (a ^ b)]. *)

val sub : ?h:int -> string -> pos:int -> len:int -> int
(** Hash of the substring [s.[pos .. pos+len-1]].
    @raise Invalid_argument on an out-of-range window. *)

val tiles : string -> int array -> int array
(** [tiles s cuts] is, for each [i < Array.length cuts - 1], the hash
    ({!sub}) of the slice [s.[cuts.(i) .. cuts.(i+1)-1]] — the chunk keys
    of a body cut at those offsets, hashed four slices at a time.
    @raise Invalid_argument unless
    [0 <= cuts.(0) <= cuts.(1) <= ... <= String.length s]. *)

val bytes : ?h:int -> bytes -> int

val to_hex : int -> string
(** Fixed-width (16 hex digit) rendering of a key, for logs and the
    [ickpt_store inspect] output. *)
