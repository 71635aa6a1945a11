(** Monitor-side resource table of one process: what each fd refers to,
    and where its {e name} came from.

    The kernel knows what an fd points at; only the monitor knows the
    taint of the string that named it when it was opened.  Entries are
    created on open/connect/accept, duplicated on dup, and dropped on
    close.  A forked child starts from a {!copy} of its parent's table,
    and [execve] keeps the table, as the kernel keeps the fds. *)

type entry = {
  e_kind : Events.resource_kind;
  e_name : string;
  e_origin : Taint.Tagset.t;  (** taint of the name/address bytes *)
  e_server : Events.resource option;
      (** for accepted connections, the listening socket resource *)
}

type t

val create : unit -> t

val set : t -> fd:int -> entry -> unit

val get : t -> fd:int -> entry option

val remove : t -> fd:int -> unit

(** [bind_origin t ~fd tag local] remembers the taint and name of an
    address being bound on a listening socket. *)
val bind_origin : t -> fd:int -> Taint.Tagset.t -> string -> unit

val bound : t -> fd:int -> (Taint.Tagset.t * string) option

(** [copy t] duplicates every entry, for fork. *)
val copy : t -> t

(** [resource_of t ~fd ~fallback] renders the fd as an event resource,
    falling back to the kernel's view when the monitor has no entry
    (e.g. stdin/stdout). *)
val resource_of :
  t -> fd:int -> fallback:Osim.Syscall.resource -> Events.resource

(** [server_of t ~fd] is the listening-socket resource behind an
    accepted connection, if any. *)
val server_of : t -> fd:int -> Events.resource option
