(** Decoded system calls: the view the kernel hands to the monitor.

    The kernel decodes registers and guest memory once and passes this
    structured view to the monitor's pre/post hooks, so Harrier never
    duplicates ABI decoding.  Resource descriptions (file paths, socket
    peers) are resolved by the kernel — the monitor still consults its own
    shadow memory for taint, using the embedded guest addresses. *)

(** What an fd refers to, resolved at decode time. *)
type resource =
  | R_stdin
  | R_stdout
  | R_stderr
  | R_file of string  (** path *)
  | R_sock of sock_res
  | R_unknown

and sock_res = {
  sr_peer : string option;  (** e.g. ["attacker:4444"] once connected *)
  sr_local : string option;  (** e.g. ["LocalHost:11111"] *)
  sr_server_side : bool;  (** the guest accepted this connection *)
}

type t =
  | Exit of { code : int }
  | Fork
  | Read of { fd : int; res : resource; buf : int; len : int }
  | Write of { fd : int; res : resource; buf : int; len : int }
  | Open of { path_addr : int; path : string; flags : int }
  | Creat of { path_addr : int; path : string }
  | Close of { fd : int; res : resource }
  | Execve of { path_addr : int; path : string; argv : string list }
  | Time
  | Getpid
  | Dup of { fd : int; res : resource }
  | Nanosleep of { duration : int }
  | Brk of { addr : int }  (** 0 queries the current break *)
  | Socket
  | Bind of { fd : int; addr_ptr : int; port : int }
  | Connect of { fd : int; addr_ptr : int; ip : int; port : int;
                 addr_name : string }
  | Listen of { fd : int; port : int }
  | Accept of { fd : int; port : int; out_addr : int;
                mutable peer : string option }
      (** [peer] is filled by the kernel once the connection completes *)
  | Unknown of { number : int }

(** [name sc] is the paper-style label (SYS_execve, SYS_connect, ...).
    Socket sub-calls are given their own names, as the paper treats them
    as distinct events. *)
val name : t -> string

(** The names of the known calls, so that a counter per call can be
    made once. *)
val names : string array

(** [index sc] is the position of [name sc] in {!names}; [-1] for
    [Unknown], whose name carries its number. *)
val index : t -> int

val pp : Format.formatter -> t -> unit
