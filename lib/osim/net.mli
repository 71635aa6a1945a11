(** The simulated network.

    Remote machines are {e scripted actors}: a list of steps executed
    eagerly whenever the connection makes progress.  An actor either
    plays a {e server} the guest connects to, or a {e client} that shows
    up on a port the guest is listening on (the pma daemon's attacker).

    Name resolution is a host table (rendered into [/etc/hosts.db] for
    the guest libc to parse); peer names such as ["attacker:4444"] are
    what taint tags and warnings display. *)

(** One step of a remote actor's script. *)
type step =
  | Send of string  (** push bytes towards the guest *)
  | Expect of int  (** wait until the guest has sent [n] more bytes *)
  | Expect_str of string
      (** wait until the guest's outbound bytes contain this exact
          string (a protocol round keyed on content, not length) *)
  | Delay of int
      (** wait [n] simulated ticks before the next step — the dormancy
          primitive: triggers arrive only after a long quiet period *)
  | Close  (** close the remote end *)

type actor = {
  actor_host : string;  (** remote host name, e.g. ["attacker"] *)
  script : step list;
}

(** Socket lifecycle, driven by the kernel. *)
type sock_state =
  | Fresh
  | Bound of int  (** port *)
  | Listening of int
  | Connected of conn
  | Closed

and conn = {
  peer : string;  (** display / taint name, e.g. ["attacker:4444"] *)
  local_name : string;  (** e.g. ["LocalHost:11111"] *)
  mutable inbox : string;  (** bytes from remote, not yet recv'd *)
  mutable sent : int;  (** total bytes the guest has sent *)
  mutable outbox : string;  (** guest bytes retained for [Expect_str] *)
  mutable remaining : step list;  (** rest of the actor script *)
  mutable wake : int option;  (** deadline of a pending [Delay] step *)
  mutable remote_closed : bool;
  server_side : bool;  (** true when the guest accepted this connection *)
}

type socket = { sock_id : int; mutable state : sock_state }

type t

val create : unit -> t

(** {2 World configuration} *)

(** [add_host t name ip] registers a DNS entry. *)
val add_host : t -> string -> int -> unit

(** [resolve t name] is the IP bound to [name]. *)
val resolve : t -> string -> int option

(** [host_of_ip t ip] renders an IP back to a name (dotted quad if
    unknown). *)
val host_of_ip : t -> int -> string

(** [hosts_db t] serializes the DNS table in the guest format: records of
    16 NUL-padded name bytes followed by a 32-bit little-endian IP. *)
val hosts_db : t -> string

(** [add_server t ~host ~port actor] makes [host:port] accept guest
    connections, animated by [actor]'s script. *)
val add_server : t -> host:string -> port:int -> actor -> unit

(** [add_incoming t ~port actor] queues a scripted remote client that will
    complete a guest [accept] on [port]. *)
val add_incoming : t -> port:int -> actor -> unit

(** {2 Socket operations (used by the kernel)} *)

val new_socket : t -> socket

(** [connect t sock ~ip ~port] connects to a scripted server.
    Returns the established connection or [None] (ECONNREFUSED). *)
val connect : t -> socket -> ip:int -> port:int -> conn option

(** [accept t sock] completes a pending scripted client on the listening
    port, if one is queued. *)
val accept : t -> socket -> conn option

(** [guest_send t conn s] delivers guest bytes to the remote and advances
    its script. *)
val guest_send : t -> conn -> string -> unit

(** [guest_recv conn n] takes up to [n] available bytes; [""] means
    no data yet (or EOF if [remote_closed]). *)
val guest_recv : conn -> int -> string

(** {2 Simulated time (used by the kernel scheduler)} *)

(** [tick t now] advances the network clock to [now] (monotone) and
    re-runs every script stalled on a [Delay] whose deadline passed. *)
val tick : t -> int -> unit

(** [next_wake t] is the earliest pending [Delay] deadline across all
    connections, if any — the scheduler fast-forwards to it instead of
    reaping guests blocked on a delivery that is merely late. *)
val next_wake : t -> int option
