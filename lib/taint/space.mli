(** A taint hash-consing arena.

    Holds the intern table, singleton cache and binary-union memo used
    by every allocating {!Tagset} operation.  Each session interns into
    a fresh space of its own, so nothing one session interned affects
    the next, and the tables are sized for one session.

    Tag sets from different spaces must never be mixed in one
    computation: contents stay correct, but pointer equality (and the
    union memo) only hold within a space. *)

type t = Tagset.space

(** A fresh, empty space.  [Tagset.empty] is pre-seeded (id 0); new tag
    sets are interned from id 1 up, deterministically in creation
    order. *)
val create : unit -> t
