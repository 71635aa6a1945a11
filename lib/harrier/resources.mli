(** Monitor-side resource table: what each (pid, fd) refers to, and where
    its {e name} came from.

    The kernel knows what an fd points at; only the monitor knows the
    taint of the string that named it when it was opened.  Entries are
    created on open/connect/accept, duplicated on dup and fork, and
    dropped on close. *)

type entry = {
  e_kind : Events.resource_kind;
  e_name : string;
  e_origin : Taint.Tagset.t;  (** taint of the name/address bytes *)
  e_server : Events.resource option;
      (** for accepted connections, the listening socket resource *)
}

type t

val create : unit -> t

val set : t -> pid:int -> fd:int -> entry -> unit

val get : t -> pid:int -> fd:int -> entry option

val remove : t -> pid:int -> fd:int -> unit

(** [bind_origin t ~pid ~fd tag local] remembers the taint and name of an
    address being bound on a listening socket. *)
val bind_origin : t -> pid:int -> fd:int -> Taint.Tagset.t -> string -> unit

val bound : t -> pid:int -> fd:int -> (Taint.Tagset.t * string) option

(** [inherit_from t ~parent ~child] duplicates all entries for fork. *)
val inherit_from : t -> parent:int -> child:int -> unit

(** [resource_of t ~pid ~fd ~fallback] renders the fd as an event
    resource, falling back to the kernel's view when the monitor has no
    entry (e.g. stdin/stdout). *)
val resource_of :
  t -> pid:int -> fd:int -> fallback:Osim.Syscall.resource -> Events.resource

(** [server_of t ~pid ~fd] is the listening-socket resource behind an
    accepted connection, if any. *)
val server_of : t -> pid:int -> fd:int -> Events.resource option
