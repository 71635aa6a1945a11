(** Shadow taint state for one process.

    Every register carries one tag set; memory is tagged per byte
    (sparsely — untagged bytes have the empty tag).  This is the
    "Harrier Data Structures" box of Fig. 6 (Reg. DataFlow / Mem.
    DataFlow).

    Memory tags are stored as 32-bit tag-set ids ({!Taint.Tagset.id}) in
    4 KiB pages of bytes, the guest's own page size, allocated on first
    taint and reclaimed when fully cleared.  A table with one slot per
    page of the 1 MiB address space indexes them, as
    {!Vm.Machine} indexes guest pages, so a read of an untainted region
    is one table load and [range]/[set_range] work on page runs.
    Addresses outside the address space read as untagged, and stores
    there are dropped without allocating or counting against the page
    budget.

    The per-instruction path works on tag ids ({!reg_id}, {!range_id}
    and their setters); the tag-set accessors convert at the boundary
    and are otherwise the same operations. *)

type t

(** A session's shadow traffic: the loads ({!range} calls) and stores
    (non-empty {!set_range} calls) of every shadow created with it,
    counted in plain fields.  One record serves a whole session, forks
    and [execve] replacements included, so nothing is lost when a
    process's shadow is replaced. *)
type counts

(** A fresh record, all counts zero. *)
val counts : unit -> counts

(** [settle c] adds [c]'s counts to the [harrier.shadow.loads] and
    [harrier.shadow.stores] counters and zeroes them.  A session
    settles once, when it ends. *)
val settle : counts -> unit

(** [create ?page_budget ~space ~counts ()] builds an empty shadow
    counting its traffic into [counts].
    [page_budget] bounds the number of live shadow pages: once reached,
    stores that would allocate a new page are {e refused} — their tag is
    folded into a sticky overflow set that widens every subsequent read,
    so the shadow degrades to conservative over-tainting rather than
    silently dropping taint.  No budget means unbounded (exact)
    tracking.  [space] is the taint hash-consing arena every union runs
    in, and every stored tag must have been interned in it: memory and
    the registers keep only tag ids, which are read back as [space]'s
    sets. *)
val create :
  ?page_budget:int -> space:Taint.Tagset.space -> counts:counts -> unit -> t

(** The taint space this shadow unions in (shared by {!clone}, as are
    its counts). *)
val space : t -> Taint.Tagset.space

(** [degraded s] is true once any store has been refused by the page
    budget; from then on reads over-approximate. *)
val degraded : t -> bool

(** [live_pages s] is the number of allocated shadow pages. *)
val live_pages : t -> int

(** [clone s] deep-copies the shadow (fork). *)
val clone : t -> t

(** [reg_id s r] is the id of [r]'s tag; [reg s r] is its tag set. *)
val reg_id : t -> Isa.Reg.t -> int

val set_reg_id : t -> Isa.Reg.t -> int -> unit

val reg : t -> Isa.Reg.t -> Taint.Tagset.t

val set_reg : t -> Isa.Reg.t -> Taint.Tagset.t -> unit

val byte : t -> int -> Taint.Tagset.t

val set_byte : t -> int -> Taint.Tagset.t -> unit

(** [range_id s addr len] is the id of the union of the tags of [len]
    bytes, unioned with {!Taint.Tagset.union_id}; a one-byte range is
    one table load and one id read. *)
val range_id : t -> int -> int -> int

(** [range s addr len] is the union of the tags of [len] bytes. *)
val range : t -> int -> int -> Taint.Tagset.t

(** [set_range_id s addr len id] tags [len] bytes with the tag set
    whose id is [id]. *)
val set_range_id : t -> int -> int -> int -> unit

(** [set_range s addr len tag] tags [len] bytes with [tag]. *)
val set_range : t -> int -> int -> Taint.Tagset.t -> unit

(** [tagged_bytes s] is the number of bytes currently carrying a
    non-empty tag (diagnostics / perf counters). *)
val tagged_bytes : t -> int
