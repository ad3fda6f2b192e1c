(** CRC-32 (IEEE 802.3 polynomial), as used by zlib and PNG.

    Backs the per-record checksums of the checkpoint framing
    ([Dart.Checkpoint]), single-run and campaign alike. *)

val string : string -> int32
(** [string s] is the CRC-32 of [s]. *)

val update : int32 -> string -> int32
(** [update crc s] extends a running checksum with the bytes of [s].
    [update 0l s = string s]. *)

val to_hex : int32 -> string
(** Fixed-width lowercase hex rendering, always 8 characters. *)

val of_hex : string -> int32 option
(** Parses exactly 8 hex characters; [None] on anything else. *)
