(** Sets of data sources.

    A tag is the set of data sources that contributed to a value.  Data
    producing instructions assign the destination the {e union} of the
    sources of their operands (Section 7.3.1): after [add %ebx, %eax] the
    tag of [%eax] is the union of the tags of [%ebx] and [%eax].

    Tag sets are hash-consed inside an explicit {!space} holding the
    intern and union-memo tables.  Allocating operations take the space
    as their first argument; read-only interrogations need none.  Tag
    sets created in different spaces must not be mixed in one
    computation: [equal] (pointer equality) only holds within a space,
    and a union resolves its operands' ids in the space it is given. *)

type t

(** A taint hash-consing arena: the intern table, singleton cache and
    binary-union memo used by every allocating operation, sized for one
    session.  Each session interns into a fresh space of its own, so
    nothing one session interned affects the next, and its cache
    statistics depend on that session alone.  The space counts its
    intern and memo hits and misses in plain fields; {!settle} adds them
    to the [taint.*] counters.

    Tag sets from different spaces must never be mixed in one
    computation: pointer equality, ids and the union memo only hold
    within a space. *)
type space

(** A fresh, empty space.  {!empty} is pre-seeded (id 0); new tag sets
    are interned from id 1 up, deterministically in creation order. *)
val make_space : unit -> space

(** The empty tag: a value with no known external provenance.  A single
    immutable node shared by every space. *)
val empty : t

val is_empty : t -> bool

val singleton : space -> Source.t -> t

val of_list : space -> Source.t list -> t

val to_list : t -> Source.t list

val add : space -> Source.t -> t -> t

(** [union sp a b] combines provenance, as performed by every
    data-producing instruction on its operand tags.  It is
    [of_id sp (union_id sp (id a) (id b))]. *)
val union : space -> t -> t -> t

(** [union_id sp a b] is the {!id} of the union of the tag sets of [sp]
    whose ids are [a] and [b]: the union the per-instruction dataflow
    performs on the ids the shadow stores, without touching a node on a
    memo hit.  Equal or empty operands return without consulting the
    memo; otherwise the pair is looked up in the space's one
    direct-mapped memo, and a miss interns the union.  Raises
    [Invalid_argument] on a miss whose operand [sp] never interned. *)
val union_id : space -> int -> int -> int

(** [settle sp] adds the intern and memo hits and misses counted in
    [sp] since the last [settle] to the [taint.intern.*] and
    [taint.union_memo.*] counters, and restarts the count.  A session
    settles its space once, when it ends. *)
val settle : space -> unit

val mem : Source.t -> t -> bool

(** Constant time: tag sets are hash-consed, so equality is a pointer
    comparison (within one space). *)
val equal : t -> t -> bool

(** A total order consistent with [equal] (the interning order), for use
    as a dictionary key.  Constant time; {e not} the subset order. *)
val compare : t -> t -> int

(** [id t] is the unique intern identifier of [t] within its space.
    [id a = id b] iff [equal a b], for tags of the same space. *)
val id : t -> int

(** [of_id sp i] is the tag set of [sp] whose {!id} is [i], so
    [of_id sp (id t) == t] for every [t] interned in [sp].  Raises
    [Invalid_argument] if [sp] has interned no set with id [i]. *)
val of_id : space -> int -> t

val cardinal : t -> int

(** [exists p t] is true iff some source in [t] satisfies [p]. *)
val exists : (Source.t -> bool) -> t -> bool

val filter : space -> (Source.t -> bool) -> t -> t

val fold : (Source.t -> 'a -> 'a) -> t -> 'a -> 'a

(** Convenience interrogations used throughout the policy. *)

val has_user_input : t -> bool

val has_hardware : t -> bool

(** [binaries t] is the list of image names appearing as BINARY sources. *)
val binaries : t -> string list

(** [files t] is the list of file names appearing as FILE sources. *)
val files : t -> string list

(** [sockets t] is the list of peer addresses appearing as SOCKET
    sources. *)
val sockets : t -> string list

val pp : Format.formatter -> t -> unit

val to_string : t -> string
