(** The guest ABI: Linux-style syscall numbers, socketcall sub-codes,
    errno values, open flags and the sockaddr layout.

    Calling convention (i386 Linux): syscall number in [eax], arguments in
    [ebx], [ecx], [edx], [esi], [edi]; result (or negated errno) in
    [eax]; trap via [int $0x80]. *)

(** {2 Syscall numbers} *)

val sys_exit : int
val sys_fork : int
val sys_read : int
val sys_write : int
val sys_open : int
val sys_close : int
val sys_creat : int
val sys_execve : int
val sys_time : int
val sys_getpid : int
val sys_dup : int
val sys_brk : int
val sys_socketcall : int
val sys_clone : int
val sys_nanosleep : int

(** [syscall_name n] is the paper's event label, e.g. ["SYS_execve"]. *)
val syscall_name : int -> string

(** {2 socketcall sub-codes} *)

val sock_socket : int
val sock_bind : int
val sock_connect : int
val sock_listen : int
val sock_accept : int
val sock_send : int
val sock_recv : int

(** {2 errno (returned negated in eax)} *)

val enoent : int
val eio : int
val ebadf : int
val eagain : int
val enomem : int
val enoexec : int
val einval : int
val econnreset : int
val econnrefused : int

(** [errno_name e] is the symbolic name, e.g. ["ENOENT"] (counter labels
    and fault-plan rendering). *)
val errno_name : int -> string

(** {2 open flags} *)

val o_rdonly : int
val o_wronly : int
val o_creat : int
val o_trunc : int
val o_append : int

(** {2 sockaddr}

    The guest sockaddr is 8 bytes: a 32-bit little-endian IPv4 address
    followed by a 16-bit little-endian port and 2 bytes of padding. *)

val sockaddr_size : int

(** [read_sockaddr read_word read_byte addr] decodes [(ip, port)]. *)
val read_sockaddr : (int -> int) -> int -> int * int

(** [write_sockaddr write_byte addr ~ip ~port] encodes a sockaddr. *)
val write_sockaddr : (int -> int -> unit) -> int -> ip:int -> port:int -> unit
