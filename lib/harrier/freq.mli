(** Basic-block frequency of one process, with last-application-BB
    attribution (Section 7.4, Fig. 3).

    Only blocks of the {e application} image (kind [Executable]) are
    counted: events triggered inside shared objects are attributed to the
    last application block executed before control entered the library,
    so `execve` reached through libc's [system] is charged to the
    application call site, not to libc's own (hot) blocks.  Each process
    owns one [t]; a forked child starts from a {!copy} of its parent's,
    and [execve] starts afresh. *)

type t

val create : unit -> t

(** [on_bb t ~is_app addr] records a basic-block entry. *)
val on_bb : t -> is_app:bool -> int -> unit

(** [attributed_bb t] is the leader address of the last application
    block, if any application code ran yet. *)
val attributed_bb : t -> int option

(** [event_frequency t] is the execution count of the attributed block
    — the [frequency] slot of every Secpert fact. *)
val event_frequency : t -> int

(** [count t addr] is the execution count of one block. *)
val count : t -> int -> int

(** [blocks t] is every counted block as [(leader, count)], in no
    particular order. *)
val blocks : t -> (int * int) list

(** [copy t] is an independent copy for a forked child: the same counts
    in fresh cells, and the same attribution. *)
val copy : t -> t
