(** Encoding Harrier events as expert-system facts (Appendix A.1).

    Three templates:
    - [system_call_access] — execve / open / creat / connect / bind /
      accept, with the resource name, type and the origin of the name;
    - [data_transfer] — a write, with the data's sources (each paired
      with the origin of its own resource name), the target and, for
      accepted connections, the listening server socket;
    - [clone_event] — process creation statistics.

    Origins are classified through the trust database before encoding, so
    rules see ["BINARY"]/["SOCKET"]/["USER_INPUT"]/["FILE"]/["HARDWARE"]
    or ["UNKNOWN"] plus the responsible resource name. *)

val t_system_call_access : string

val t_data_transfer : string

val t_clone_event : string

val t_alloc_event : string

(** [deftemplates engine] installs the three templates. *)
val deftemplates : Expert.Engine.t -> unit

(** [assert_event engine trust event] encodes and asserts [event],
    returning the fact (callers retract it after inference). *)
val assert_event :
  Expert.Engine.t -> Trust.t -> Harrier.Events.t -> Expert.Fact.t

(** [assert_event_full engine trust event] additionally asserts one
    [transfer_source] fact per data source of a transfer, whose [xfer]
    slot holds the main fact's id — the flattened encoding the textual
    CLIPS policy uses, which joins on it by binding the transfer's fact
    address ([?x <- (data_transfer ...)], then
    [(transfer_source (xfer ?x) ...)]).  The main fact comes first. *)
val assert_event_full :
  Expert.Engine.t -> Trust.t -> Harrier.Events.t -> Expert.Fact.t list

(** {2 Decoding helpers for rule actions} *)

val get_str : Expert.Pattern.bindings -> string -> string

val get_sym : Expert.Pattern.bindings -> string -> string

val get_int : Expert.Pattern.bindings -> string -> int

(** A decoded data-transfer source: (source type, source name, origin
    type, origin name). *)
type source_info = {
  s_type : string;
  s_name : string;
  s_origin_type : string;
  s_origin_name : string;
}

val decode_sources : Expert.Value.t -> source_info list

(** A decoded server slot: (local address, origin type, origin name). *)
val decode_server : Expert.Value.t -> (string * string * string) option

(** [origin_values trust tag] is [(origin_type, origin_name)] as stored
    in facts. *)
val origin_values : Trust.t -> Taint.Tagset.t -> string * string
