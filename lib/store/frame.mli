(** Length-framed segment records with adler-32 integrity.

    A segment file is the 8-byte magic {!magic} followed by frames;
    each frame is a 10-byte header — kind byte ([D]ata / inde[X] /
    [E]nd), a flags byte (bit 0: payload is raw-deflate compressed),
    payload length and adler-32 of the {e stored} payload, both
    little-endian u32 — then the payload bytes.  The checksum covers
    the stored bytes, so corruption is detected before any
    decompression is attempted. *)

val magic : string
(** ["HTHSEG1\n"] — first 8 bytes of every segment file. *)

type kind = Data | Index | End

type t = {
  f_kind : kind;
  f_compressed : bool;
  f_stored : string;  (** payload as stored (compressed if flagged) *)
}

val add : Buffer.t -> kind:kind -> string -> unit
(** [add buf ~kind payload] frames [payload], deflate-compressing it
    when that actually shrinks it (the flag byte records which). *)

val read : string -> pos:int -> (t * int, string) result
(** [read s ~pos] parses the frame at [pos], verifying bounds and
    checksum, and returns it with the offset of the next frame. *)

val payload : t -> (string, string) result
(** The frame's logical payload, decompressed if needed. *)
