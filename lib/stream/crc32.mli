(** CRC-32 (IEEE 802.3 polynomial, reflected, [0xedb88320]), used to frame
    checkpoint segments, pack chunks and index entries so that torn or
    corrupted writes are detected during recovery.

    Computed by slicing-by-16: sixteen 256-entry tables, built once at
    module initialisation, fold sixteen input bytes per step (read as two
    unchecked 8-byte loads, the window being checked once); the last
    [len mod 16] bytes go through the classic bytewise table. The output
    is the standard CRC-32 (the check value of ["123456789"] is
    [0xcbf43926]). *)

val string : ?crc:int -> string -> int
(** [string s] is the CRC-32 of [s]; [?crc] continues a running checksum,
    so [string ~crc:(string a) b = string (a ^ b)]. Only the low 32 bits
    of [?crc] are used. *)

val bytes : ?crc:int -> bytes -> int

val sub : ?crc:int -> string -> pos:int -> len:int -> int
(** Checksum of the substring [s.[pos .. pos+len-1]].
    @raise Invalid_argument on an out-of-range window. *)
