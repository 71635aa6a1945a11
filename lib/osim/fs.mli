(** The in-memory filesystem.

    Files hold raw bytes.  Executables additionally carry a {!Binary.Image.t}
    (our images are structured values, not byte-encoded, so the kernel
    keeps them alongside the file node).  A file {e written} by a guest
    has no image — exec'ing it fails with ENOEXEC, reproducing the
    paper's Tic-Tac-Toe dropper footnote ("the execution fails since the
    file is not in a executable format"). *)

type file = {
  mutable data : Bytes.t;
  mutable image : Binary.Image.t option;
}

type t

val create : unit -> t

(** [install fs path data] creates a plain file, or replaces the byte
    contents of an existing one (keeping any installed image). *)
val install : t -> string -> string -> unit

(** [install_image fs img] installs an executable or shared object at its
    [img.path], with empty byte contents. *)
val install_image : t -> Binary.Image.t -> unit

val exists : t -> string -> bool

(** [image_of fs path] is the image installed at [path], if any. *)
val image_of : t -> string -> Binary.Image.t option

(** [ensure fs path] returns the file at [path], creating an empty one if
    needed. *)
val ensure : t -> string -> file

(** [read_at f ~pos ~len] reads up to [len] bytes from offset [pos]. *)
val read_at : file -> pos:int -> len:int -> string

(** [write_at f ~pos s] writes [s] at offset [pos], growing the file. *)
val write_at : file -> pos:int -> string -> unit

val size : file -> int

val truncate : file -> unit

(** [contents fs path] is the file's full data, for tests and reports. *)
val contents : t -> string -> string option

val paths : t -> string list
