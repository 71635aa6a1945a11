(** Guest-side conveniences: syscall emission helpers over the assembler
    DSL.

    Every helper clobbers [eax]/[ebx]/[ecx]/[edx] as a real syscall stub
    would; results land in [eax].  Programs that use the socket helpers
    or [parse_int] must call {!prologue} once to reserve the scratch
    areas. *)

(** [prologue u] reserves [__scratch] (64 bytes, socketcall argument
    arrays and built sockaddrs) and [__buf] (256 bytes, I/O). *)
val prologue : Asm.t -> unit

(** {2 Processes} *)

val sys_exit : Asm.t -> int -> unit

(** [sys_fork u] — result in [eax] (0 in the child). *)
val sys_fork : Asm.t -> unit

(** [sys_execve u ~path ?argv ()] — [argv] points at a NULL-terminated
    pointer array, or 0. *)
val sys_execve : Asm.t -> path:Asm.arg -> ?argv:Asm.arg -> unit -> unit

val sys_sleep : Asm.t -> int -> unit

(** {2 Files} *)

(** [sys_open u ~path ~flags] — fd (or negative errno) in [eax]. *)
val sys_open : Asm.t -> path:Asm.arg -> flags:int -> unit

val sys_creat : Asm.t -> path:Asm.arg -> unit

val sys_close : Asm.t -> fd:Asm.arg -> unit

val sys_read : Asm.t -> fd:Asm.arg -> buf:Asm.arg -> len:Asm.arg -> unit

val sys_write : Asm.t -> fd:Asm.arg -> buf:Asm.arg -> len:Asm.arg -> unit

(** {2 Sockets} *)

(** [sys_socket u] — socket fd in [eax]. *)
val sys_socket : Asm.t -> unit

val sys_connect : Asm.t -> fd:Asm.arg -> addr:Asm.arg -> unit

val sys_bind : Asm.t -> fd:Asm.arg -> addr:Asm.arg -> unit

val sys_listen : Asm.t -> fd:Asm.arg -> unit

(** [sys_accept u ~fd] — connection fd in [eax]. *)
val sys_accept : Asm.t -> fd:Asm.arg -> unit

val sys_send : Asm.t -> fd:Asm.arg -> buf:Asm.arg -> len:Asm.arg -> unit

val sys_recv : Asm.t -> fd:Asm.arg -> buf:Asm.arg -> len:Asm.arg -> unit

(** [static_sockaddr u name ~ip ~port] places an 8-byte sockaddr blob in
    [.rodata] — a {e hard-coded} address. *)
val static_sockaddr : Asm.t -> string -> ip:int -> port:int -> unit

(** [build_sockaddr ?at u ~ip_src ~port] assembles a sockaddr at
    [__scratch+at] (default 32) from a 4-byte IP located at the address
    in [ip_src] (e.g. gethostbyname's result) and a port; leaves its
    address in [eax].  Clobbers [ebx]. *)
val build_sockaddr : ?at:int -> Asm.t -> ip_src:Asm.arg -> port:Asm.arg -> unit

(** {2 argv and numbers} *)

(** [save_argv u n dst_label] stores the pointer to argv[n] (from the
    initial stack) into the word at [dst_label].  Must run at [_start]
    before the stack pointer moves. *)
val save_argv : Asm.t -> int -> string -> unit

(** [save_env u n dst_label] stores the pointer to env[n] into the word
    at [dst_label]; like {!save_argv}, it must run at [_start].  Env
    strings are USER_INPUT, as the paper prescribes for the initial
    stack. *)
val save_env : Asm.t -> int -> string -> unit

(** [parse_int u ~src ~dst] parses a decimal NUL-terminated string whose
    address is in register [src] into register [dst].  Clobbers [ebx],
    [ecx]. The labels it emits are namespaced by [id]. *)
val parse_int : Asm.t -> id:string -> src:Isa.Reg.t -> dst:Isa.Reg.t -> unit

(** [strlen u ~id ~src ~dst] computes the length of the NUL-terminated
    string whose address is in [src] into [dst]. *)
val strlen : Asm.t -> id:string -> src:Isa.Reg.t -> dst:Isa.Reg.t -> unit

(** [print u name s] emits a write of the literal [s] (placed in rodata
    under [name]) to stdout. *)
val print : Asm.t -> string -> string -> unit
