(** Events Harrier sends to Secpert (Section 6.1.2).

    Two shapes, as in the paper: {e resource access} (a system call names
    a resource — execve, open, connect, bind, accept, clone) and {e data
    transfer} (a write/send moves tagged data into a resource).  Every
    event carries the time (world ticks), the frequency of the attributed
    application basic block and its address — the slots of the CLIPS
    facts of Appendix A.1. *)

type resource_kind = R_file | R_socket | R_stdio

(** A resource plus the provenance of its {e name}. *)
type resource = {
  r_kind : resource_kind;
  r_name : string;  (** path, peer address, or STDIN/STDOUT *)
  r_origin : Taint.Tagset.t;  (** taint of the name's bytes *)
}

(** Event metadata common to all events. *)
type meta = {
  pid : int;
  time : int;
  freq : int;  (** execution count of the attributed application BB *)
  addr : int;  (** leader address of that BB *)
  step : int;
      (** trace step index this event was emitted at (the step of its
          ["flow"] line when a trace sink is installed, the monitor's
          event ordinal otherwise) — lets evidence recorded in
          warnings resolve to concrete trace lines offline *)
}

type t =
  | Exec of { path : resource; argv : string list; meta : meta }
      (** an [execve] is about to run *)
  | Clone of { total : int; recent : int; window : int; meta : meta }
      (** a process is being created; [total] clones so far, [recent] of
          them within the last [window] ticks *)
  | Access of { call : string; res : resource; meta : meta }
      (** open / creat / connect / bind / listen / accept *)
  | Alloc of { requested : int; total : int; meta : meta }
      (** the program break moved; [total] is heap bytes now held *)
  | Transfer of {
      call : string;
      data : Taint.Tagset.t;  (** taint of the transferred bytes *)
      head : string;  (** first bytes of the written data (content
                          analysis: executable magic detection) *)
      sources : (Taint.Source.t * Taint.Tagset.t) list;
          (** each data source paired with the origin of {e its} resource
              name (how the source file/socket was itself named), empty
              for USER_INPUT / BINARY / HARDWARE sources *)
      guard : (Taint.Source.t * Taint.Tagset.t) list;
          (** taint of the most recent {e tainted} compare/test in this
              process — the data that last steered control flow toward
              this transfer.  A SOCKET entry here marks trigger-gated
              (dormant) behaviour: remote bytes armed the path. *)
      target : resource;
      via_server : resource option;
          (** for accepted connections: the listening socket (name = local
              address, origin = taint of the bound address) *)
      len : int;
      meta : meta;
    }

val kind_name : resource_kind -> string

val meta_of : t -> meta

(** The event shapes' names: ["exec"], ["clone"], ["access"],
    ["alloc"] and ["transfer"] — the ["kind"] field of a flow line and
    the label of its [harrier.events.<kind>] counter. *)
val kinds : string array

(** [kind_index e] is the position of [e]'s shape in {!kinds}. *)
val kind_index : t -> int

(** {2 The flow-line codec}

    An event's one serialised form is the ["flow"] line of a JSONL
    trace.  [to_fields e] is that line's fields after ["step"] and
    ["ev"]: [kind], [pid], [tick], [freq], [addr], then per shape

    - exec: [call], [res_kind], [res_name], [origin], [argv];
    - access: [call], [res_kind], [res_name], [origin];
    - clone: [total], [recent], [window];
    - alloc: [requested], [total];
    - transfer: [call], [target_kind], [target_name], [target_origin],
      [data], [len], [head], [sources], [guard], and [server_kind],
      [server_name], [server_origin] for accepted connections.

    Tag sets print as {!Taint.Tagset.to_string}; [sources] and [guard]
    are [SOURCE<-TAGSET] items joined by [;]; [argv] is its items as
    OCaml string literals joined by spaces; [head] is lowercase hex. *)
val to_fields : t -> (string * Obs.value) list

(** [of_fields space fields] decodes a flow line's fields (["step"]
    included, as the trace reader returns them) back into the event,
    interning its tag sets in [space].  Total: malformed input is an
    [Error], never an exception. *)
val of_fields :
  Taint.Tagset.space -> (string * Obs.value) list -> (t, string) result

val pp : Format.formatter -> t -> unit
