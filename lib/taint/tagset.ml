(* Hash-consed tag sets.

   Every distinct set of sources is interned exactly once into a node
   carrying a unique integer id, so [equal]/[compare] are id (indeed
   pointer) comparisons and [is_empty] is a pointer check against the
   interned empty node.  A memoized binary-union cache keyed on id pairs
   and holding ids makes the union-per-instruction performed by
   [Harrier.Dataflow.step] ([union_id], on the ids the shadow stores)
   allocation-free and node-free on the (overwhelmingly common)
   repeated-operand case; [union] is the same memo seen through nodes.

   The intern and memo tables live in an explicit [space] rather than in
   process globals, and each session interns into a fresh one, so its
   cache statistics are a pure function of the session.  The space
   counts them in plain fields, and [settle] adds them to the [taint.*]
   counters once per session: an [Obs.Counter.incr] per union would
   cost more than the union.  The only process-global value is the
   canonical [empty] node (id 0), which is immutable and pre-seeded
   into every space, so [is_empty]/[equal] stay pointer checks and
   [empty] needs no space in hand.  A space maps each id back to its
   node, so a store of bare ids (the shadow's registers and memory
   pages) can be read back as tag sets.  Tag sets from different
   spaces must not be mixed in one computation: a union resolves its
   operands' ids in the space it is given. *)

module S = Set.Make (Source)

type t = { id : int; set : S.t }

(* Intern table, keyed by the canonical (sorted, deduplicated) element
   list of the set. *)
module Key = struct
  type t = Source.t list

  let equal = List.equal (fun a b -> Source.compare a b = 0)
  let hash = Hashtbl.hash
end

module Intern = Hashtbl.Make (Key)

(* Binary-union memo: a direct-mapped cache keyed on the (ordered) id
   pair packed into one int and holding the union's id, so a hit is two
   array reads plus an integer compare — no hashing, no allocation.
   Ids are dense and small, so the packing is injective in practice;
   collisions just overwrite the slot and recompute later.  A space
   serves one session, which interns a handful of tag sets, so the memo
   and both intern tables are sized for that. *)
let memo_bits = 8
let memo_mask = (1 lsl memo_bits) - 1
let intern_buckets = 64
let singleton_buckets = 16

type space = {
  intern_tbl : t Intern.t;
  mutable next_id : int;
  mutable nodes : t array;  (* id -> node, for ids below [next_id] *)
  singleton_tbl : (Source.t, t) Hashtbl.t;
  memo_keys : int array;
  memo_vals : int array;  (* union id per memo slot *)
  mutable intern_hits : int;  (* counts since the last [settle] *)
  mutable intern_misses : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
}

(* The canonical empty node, shared by every space.  Immutable; id 0 is
   reserved for it (spaces allocate ids from 1). *)
let empty = { id = 0; set = S.empty }

let c_intern_hits = Obs.Counter.make "taint.intern.hits"
let c_intern_misses = Obs.Counter.make "taint.intern.misses"
let c_memo_hits = Obs.Counter.make "taint.union_memo.hits"
let c_memo_misses = Obs.Counter.make "taint.union_memo.misses"

let make_space () =
  let sp =
    { intern_tbl = Intern.create intern_buckets;
      next_id = 1;
      nodes = Array.make intern_buckets empty;
      singleton_tbl = Hashtbl.create singleton_buckets;
      memo_keys = Array.make (1 lsl memo_bits) (-1);
      memo_vals = Array.make (1 lsl memo_bits) 0;
      intern_hits = 0; intern_misses = 0; memo_hits = 0; memo_misses = 0 }
  in
  Intern.add sp.intern_tbl [] empty;
  sp

let intern sp set =
  let key = S.elements set in
  match Intern.find_opt sp.intern_tbl key with
  | Some t ->
    sp.intern_hits <- sp.intern_hits + 1;
    t
  | None ->
    sp.intern_misses <- sp.intern_misses + 1;
    let t = { id = sp.next_id; set } in
    sp.next_id <- sp.next_id + 1;
    Intern.add sp.intern_tbl key t;
    let n = Array.length sp.nodes in
    if t.id = n then begin
      let nodes = Array.make (2 * n) empty in
      Array.blit sp.nodes 0 nodes 0 n;
      sp.nodes <- nodes
    end;
    sp.nodes.(t.id) <- t;
    t

let[@inline] is_empty t = t == empty

let[@inline] id t = t.id

let[@inline] of_id sp i =
  if i >= 0 && i < sp.next_id then Array.unsafe_get sp.nodes i
  else invalid_arg "Tagset.of_id"

(* Interning makes structural equality pointer equality. *)
let[@inline] equal a b = a == b

let[@inline] compare a b = Int.compare a.id b.id

let singleton sp s =
  match Hashtbl.find_opt sp.singleton_tbl s with
  | Some t -> t
  | None ->
    let t = intern sp (S.singleton s) in
    Hashtbl.add sp.singleton_tbl s t;
    t

let of_list sp l = intern sp (S.of_list l)

let to_list t = S.elements t.set

let add sp s t = if S.mem s t.set then t else intern sp (S.add s t.set)

(* A memo miss: intern the union and remember it in slot [h]. *)
let[@inline never] union_miss sp packed h a b =
  sp.memo_misses <- sp.memo_misses + 1;
  let r = (intern sp (S.union (of_id sp a).set (of_id sp b).set)).id in
  Array.unsafe_set sp.memo_keys h packed;
  Array.unsafe_set sp.memo_vals h r;
  r

let[@inline] union_id sp a b =
  if a = b || b = 0 then a
  else if a = 0 then b
  else begin
    let packed = if a < b then (a lsl 31) lor b else (b lsl 31) lor a in
    (* low bits hold one id, bits 31+ the other; fold them together *)
    let h = (packed lxor (packed lsr 29)) land memo_mask in
    if Array.unsafe_get sp.memo_keys h = packed then begin
      sp.memo_hits <- sp.memo_hits + 1;
      Array.unsafe_get sp.memo_vals h
    end
    else union_miss sp packed h a b
  end

let union sp a b = of_id sp (union_id sp a.id b.id)

let settle sp =
  Obs.Counter.add c_intern_hits sp.intern_hits;
  Obs.Counter.add c_intern_misses sp.intern_misses;
  Obs.Counter.add c_memo_hits sp.memo_hits;
  Obs.Counter.add c_memo_misses sp.memo_misses;
  sp.intern_hits <- 0;
  sp.intern_misses <- 0;
  sp.memo_hits <- 0;
  sp.memo_misses <- 0

let mem s t = S.mem s t.set
let cardinal t = S.cardinal t.set
let exists p t = S.exists p t.set

let filter sp p t =
  let set = S.filter p t.set in
  if set == t.set then t else intern sp set

let fold f t acc = S.fold f t.set acc

let has_user_input t = S.mem User_input t.set
let has_hardware t = S.mem Hardware t.set

let select f t =
  S.fold (fun s acc -> match f s with Some x -> x :: acc | None -> acc) t.set []

let binaries t =
  select (function Source.Binary n -> Some n | _ -> None) t |> List.rev

let files t =
  select (function Source.File n -> Some n | _ -> None) t |> List.rev

let sockets t =
  select (function Source.Socket n -> Some n | _ -> None) t |> List.rev

let pp ppf t =
  Fmt.pf ppf "@[<h>{%a}@]" Fmt.(list ~sep:(any ", ") Source.pp) (to_list t)

let to_string = Fmt.to_to_string pp
