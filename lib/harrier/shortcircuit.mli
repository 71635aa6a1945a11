(** Library-call short-circuiting (Section 7.2).

    Routines such as [gethostbyname] {e translate} data through a table
    (the hosts database), so naive byte-level tracking tags the result
    with the table's provenance instead of the input's.  Harrier treats
    such routines as atomic: it captures the taint of the interesting
    argument at entry and overwrites the taint of the result at exit —
    tying the hard-coded ["pop.mail.yahoo.com"] to the network address
    [connect] ultimately receives. *)

(** What to do at the boundaries of one routine. *)
type spec = {
  routine : string;  (** exported symbol name, e.g. ["gethostbyname"] *)
  capture : Vm.Machine.t -> Shadow.t -> Taint.Tagset.t;
      (** run at entry (the [Call] instruction is about to execute, so
          the first argument is at [(%esp)]) *)
  apply : Vm.Machine.t -> Shadow.t -> Taint.Tagset.t -> unit;
      (** run at exit (the matching [Ret] is about to execute; the
          result is in [%eax]) *)
}

(** The paper's example: capture the tags of the NUL-terminated hostname
    string pointed to by the first argument; at exit, stamp them over the
    4-byte address buffer [%eax] points at. *)
val gethostbyname : spec

type frame

type t

val create : spec list -> t

(** [clone t] copies the frame stack (fork). *)
val clone : t -> t

(** [on_call t ~routine machine shadow ~ret_addr] pushes a tracking frame
    when [routine] has a spec. *)
val on_call : t -> routine:string -> Vm.Machine.t -> Shadow.t ->
  ret_addr:int -> unit

(** [on_ret t machine shadow] detects the matching return (stack-pointer
    discipline) and applies the captured taint. *)
val on_ret : t -> Vm.Machine.t -> Shadow.t -> unit
