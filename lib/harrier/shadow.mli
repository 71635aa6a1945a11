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
    budget. *)

type t

(** [create ?page_budget ~space ()] builds an empty shadow.
    [page_budget] bounds the number of live shadow pages: once reached,
    stores that would allocate a new page are {e refused} — their tag is
    folded into a sticky overflow set that widens every subsequent read,
    so the shadow degrades to conservative over-tainting rather than
    silently dropping taint.  No budget means unbounded (exact)
    tracking.  [space] is the taint hash-consing arena every union runs
    in, and every stored tag must have been interned in it: memory and
    the registers keep only tag ids, which are read back as [space]'s
    sets. *)
val create : ?page_budget:int -> space:Taint.Tagset.space -> unit -> t

(** The taint space this shadow unions in (shared by {!clone}). *)
val space : t -> Taint.Tagset.space

(** [degraded s] is true once any store has been refused by the page
    budget; from then on reads over-approximate. *)
val degraded : t -> bool

(** [live_pages s] is the number of allocated shadow pages. *)
val live_pages : t -> int

(** [clone s] deep-copies the shadow (fork). *)
val clone : t -> t

val reg : t -> Isa.Reg.t -> Taint.Tagset.t

val set_reg : t -> Isa.Reg.t -> Taint.Tagset.t -> unit

val byte : t -> int -> Taint.Tagset.t

val set_byte : t -> int -> Taint.Tagset.t -> unit

(** [range s addr len] is the union of the tags of [len] bytes. *)
val range : t -> int -> int -> Taint.Tagset.t

(** [set_range s addr len tag] tags [len] bytes with [tag]. *)
val set_range : t -> int -> int -> Taint.Tagset.t -> unit

(** [tagged_bytes s] is the number of bytes currently carrying a
    non-empty tag (diagnostics / perf counters). *)
val tagged_bytes : t -> int
