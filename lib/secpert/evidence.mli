(** Per-warning forensic evidence.

    A warning's evidence names (by reference, not by copy) the
    working-memory facts the firing rule matched — each with the trace
    step of the Harrier event it encodes — and the taint-classified
    resources the policy action consulted.  Both are rendered into the
    warning's trace line as flat strings, so an offline consumer
    ({!module:Forensics} / [hth_trace explain]) can walk the chain
    warning → rule activation → facts → events → originating taint
    from the recorded trace alone. *)

(** A matched working-memory fact: template, fact id, and the trace
    step of the event it encodes ([-1] when the fact carries no
    step, e.g. under the no-op sink). *)
type fact_ref = {
  fr_template : string;
  fr_id : int;
  fr_step : int;
}

(** A resource the policy action looked at, with its taint-classified
    origin.  [og_role] says how it participated ([source] / [target] /
    [server] / [resource]); [og_origin_type] is the trust
    classification ([SOCKET], [BINARY], [USER_INPUT], ...) and
    [og_origin_name] the responsible resource name (empty for
    USER_INPUT / HARDWARE / UNKNOWN). *)
type origin_ref = {
  og_role : string;
  og_type : string;
  og_name : string;
  og_origin_type : string;
  og_origin_name : string;
}

type t = {
  facts : fact_ref list;
  origins : origin_ref list;
}

val is_empty : t -> bool

val of_fact : Expert.Fact.t -> fact_ref
(** [of_fact f] references [f], reading the event step from its
    ["step"] slot. *)

val origin :
  role:string -> otype:string -> name:string -> origin_type:string ->
  origin_name:string -> origin_ref

val facts_to_string : t -> string
(** Comma-joined [tpl#id@step] references. *)

val origins_to_string : t -> string
(** Semicolon-joined [role=TYPE:name<-ORIGIN_TYPE:origin_name]
    references.  In each name, ['\\'], [';'] and the ['<'] of ["<-"]
    are escaped with a ['\\']; other names are written as they are. *)

val parse_facts : string -> fact_ref list
(** The references of a {!facts_to_string} rendering; a malformed part
    is dropped. *)

val parse_origins : string -> origin_ref list
(** The references of an {!origins_to_string} rendering, names
    unescaped: the role ends at the first ['='], the halves at the
    first unescaped ["<-"], each [TYPE:name] at the first [':'], so
    [':'] inside names (host:port) survives.  A malformed part is
    dropped. *)

val pp : Format.formatter -> t -> unit
