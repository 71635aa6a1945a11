(* Paged shadow memory.

   Memory tags live in pages covering the guest's own 4 KiB memory
   pages.  A page is a [Bytes] of [page_size] little-endian 32-bit
   intern ids ([Taint.Tagset.id]; id 0 is the empty set), read back
   through the space's id table ([Taint.Tagset.of_id]).  So a page is
   16 KiB of plain bytes that the GC never scans, initialises slot by
   slot or puts behind a write barrier, and [clone] copies it with one
   [Bytes.copy].  Pages are indexed the way [Vm.Machine] indexes guest
   pages: one table slot per page of the address space, each pointing
   at the shared [no_page] sentinel until the first non-empty store
   into it.  A page is reclaimed when its last tagged byte is cleared,
   so untainted regions cost one table load to read.  Addresses outside
   the address space read as untagged and stores there are dropped: the
   VM faults on any such access, so no guest byte exists to carry the
   tag.  The register file holds ids too, in an [int array], so a
   register store is a plain store with no write barrier.

   Tag sets are hash-consed, so equal sets have equal ids, which the
   range scan exploits: a run of bytes carrying the same tag — the
   common case after a [set_range] — costs one integer comparison per
   byte and no unions, and an idempotent store writes nothing.  The
   per-instruction path ([Dataflow.step]) works on ids end to end
   ([reg_id], [range_id] and their setters, unions through
   [Taint.Tagset.union_id]); the tag-set accessors are wrappers that
   convert at the boundary.

   Every shadow of a session counts its loads and stores into one
   shared [counts] record, settled into the [harrier.shadow.*]
   counters once per session ([settle]): a counter increment per
   operand would cost more than the operand. *)

let page_bits = Vm.Machine.page_bits
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let mem_size = Vm.Machine.mem_size
let n_pages = mem_size lsr page_bits

type page = {
  ids : Bytes.t;  (* [page_size] 32-bit tag ids, little-endian *)
  mutable live : int;  (* number of non-zero ids; > 0 while mapped *)
}

(* The "no page" sentinel every unmapped slot points at. *)
let no_page = { ids = Bytes.empty; live = 0 }

type counts = {
  mutable loads : int;  (* [range] calls since the last [settle] *)
  mutable stores : int;  (* non-empty [set_range] calls, likewise *)
}

type t = {
  space : Taint.Tagset.space;  (* interns every tag stored or unioned below *)
  counts : counts;  (* shared by every shadow of the session *)
  regs : int array;  (* tag id per register, by [Isa.Reg.index] *)
  pages : page array;  (* [n_pages] slots, [no_page] until first tagged *)
  budget : int;  (* max live pages before saturation (max_int = none) *)
  mutable mapped : int;  (* slots not pointing at [no_page] *)
  mutable overflow : int;
      (* id of the union of every tag whose store was refused by the
         budget; once non-zero the shadow is degraded and every read is
         widened by this set — conservative over-tainting, taint is
         never lost *)
  mutable tagged : int;  (* total non-empty bytes across pages *)
}

let c_loads = Obs.Counter.make "harrier.shadow.loads"
let c_stores = Obs.Counter.make "harrier.shadow.stores"

(* One increment per shadow that crosses into saturation. *)
let c_degraded = Obs.Counter.make "harrier.degraded"
let c_refused = Obs.Counter.make "harrier.shadow.stores_refused"

let counts () = { loads = 0; stores = 0 }

let settle c =
  Obs.Counter.add c_loads c.loads;
  Obs.Counter.add c_stores c.stores;
  c.loads <- 0;
  c.stores <- 0

let create ?page_budget ~space ~counts () =
  { space; counts; regs = Array.make Isa.Reg.count 0;
    pages = Array.make n_pages no_page;
    budget = (match page_budget with Some b -> Int.max 0 b | None -> max_int);
    mapped = 0; overflow = 0; tagged = 0 }

let space s = s.space

let degraded s = s.overflow <> 0

let live_pages s = s.mapped

(* Refuse a store the page budget cannot accommodate: widen [overflow]
   instead, so subsequent reads still see the tag (and possibly more). *)
let refuse s id =
  Obs.Counter.incr c_refused;
  if not (degraded s) then Obs.Counter.incr c_degraded;
  s.overflow <- Taint.Tagset.union_id s.space s.overflow id

let clone s =
  { s with
    regs = Array.copy s.regs;
    pages =
      Array.map
        (fun p ->
          if p == no_page then p else { ids = Bytes.copy p.ids; live = p.live })
        s.pages }

(* [Isa.Reg.index] is 0-7 by construction and [regs] has
   [Isa.Reg.count] slots. *)
let[@inline] reg_id s r = Array.unsafe_get s.regs (Isa.Reg.index r)

let[@inline] set_reg_id s r id = Array.unsafe_set s.regs (Isa.Reg.index r) id

let reg s r = Taint.Tagset.of_id s.space (reg_id s r)

let set_reg s r tag = set_reg_id s r (Taint.Tagset.id tag)

(* Page [i] of the table, [no_page] when unmapped or outside the
   address space. *)
let[@inline] page s i =
  if i < n_pages then Array.unsafe_get s.pages i else no_page

let[@inline] get_id p off =
  Int32.to_int (Bytes.get_int32_le p.ids (off lsl 2)) land 0xFFFF_FFFF

let[@inline] set_id p off id =
  Bytes.set_int32_le p.ids (off lsl 2) (Int32.of_int id)

(* Widen a read by the overflow set when the shadow is degraded; free
   (one integer compare) otherwise. *)
let[@inline] widen s id =
  if s.overflow = 0 then id else Taint.Tagset.union_id s.space id s.overflow

(* Union the tags of bytes [i, stop) of [p] into the id [acc].  A byte
   carrying no tag, or the tag already accumulated, returns from
   [union_id] before its memo.  The scans here and below are top-level
   tail loops, so no call allocates a closure. *)
let rec union_ids sp p i stop acc =
  if i >= stop then acc
  else union_ids sp p (i + 1) stop (Taint.Tagset.union_id sp acc (get_id p i))

(* The union over the pages that [pos, stop) spans. *)
let rec union_pages s pos stop acc =
  if pos >= stop then acc
  else begin
    let off = pos land page_mask in
    let n = Int.min (stop - pos) (page_size - off) in
    let p = page s (pos lsr page_bits) in
    union_pages s (pos + n) stop
      (if p == no_page then acc else union_ids s.space p off (off + n) acc)
  end

let range_id s addr len =
  s.counts.loads <- s.counts.loads + 1;
  let off = addr land page_mask in
  if len = 1 then begin
    (* fast path: one byte, as a [movb] reads *)
    let p = page s (addr lsr page_bits) in
    widen s (if p == no_page then 0 else get_id p off)
  end
  else if len <= 0 then 0
  else if off + len <= page_size then begin
    (* fast path: the whole range lives in one page *)
    let p = page s (addr lsr page_bits) in
    widen s (if p == no_page then 0 else union_ids s.space p off (off + len) 0)
  end
  else
    (* only bytes inside the address space can carry a tag *)
    widen s (union_pages s (Int.max addr 0) (Int.min (addr + len) mem_size) 0)

let range s addr len = Taint.Tagset.of_id s.space (range_id s addr len)

let byte s addr = range s addr 1

let fill p off n id =
  if id = 0 then Bytes.fill p.ids (off lsl 2) (n lsl 2) '\000'
  else
    for i = off to off + n - 1 do
      set_id p i id
    done

let rec all_ids p i stop id =
  i >= stop || (get_id p i = id && all_ids p (i + 1) stop id)

let rec count_live p i stop c =
  if i >= stop then c
  else count_live p (i + 1) stop (if get_id p i <> 0 then c + 1 else c)

(* Store [id] over byte [off] of page [i], mapped as [p]: what the
   general case below does for one byte, without its scans. *)
let set_one s i p off id =
  let old = get_id p off in
  if old <> id then begin
    set_id p off id;
    let delta = (if id = 0 then 0 else 1) - (if old = 0 then 0 else 1) in
    if delta <> 0 then begin
      p.live <- p.live + delta;
      s.tagged <- s.tagged + delta;
      if p.live = 0 then begin
        s.pages.(i) <- no_page;
        s.mapped <- s.mapped - 1
      end
    end
  end

(* Store [id] over bytes [off, off+n) of page [i], maintaining the live
   counters.  Idempotent stores — every byte already carries the tag,
   the common case when a loop re-copies the same buffer — are detected
   by id comparison and write nothing. *)
let set_in_page s i off n id =
  let p = page s i in
  if p != no_page then begin
    if n = 1 then set_one s i p off id
    else begin
      let stop = off + n in
      if not (all_ids p off stop id) then begin
        let old_live =
          if n = page_size then p.live else count_live p off stop 0
        in
        fill p off n id;
        let delta = (if id = 0 then 0 else n) - old_live in
        p.live <- p.live + delta;
        s.tagged <- s.tagged + delta;
        if p.live = 0 then begin
          s.pages.(i) <- no_page;
          s.mapped <- s.mapped - 1
        end
      end
    end
  end
  else if id <> 0 && i < n_pages then begin
    (* the page's first tagged bytes; clearing an unmapped page, or a
       store outside the address space, does nothing *)
    if s.mapped >= s.budget then refuse s id
    else begin
      let p = { ids = Bytes.make (page_size lsl 2) '\000'; live = n } in
      fill p off n id;
      s.pages.(i) <- p;
      s.mapped <- s.mapped + 1;
      s.tagged <- s.tagged + n
    end
  end

let rec set_pages s pos stop id =
  if pos < stop then begin
    let off = pos land page_mask in
    let n = Int.min (stop - pos) (page_size - off) in
    set_in_page s (pos lsr page_bits) off n id;
    set_pages s (pos + n) stop id
  end

let set_range_id s addr len id =
  if len > 0 then begin
    s.counts.stores <- s.counts.stores + 1;
    let off = addr land page_mask in
    if off + len <= page_size then
      set_in_page s (addr lsr page_bits) off len id
    else set_pages s (Int.max addr 0) (Int.min (addr + len) mem_size) id
  end

let set_range s addr len tag = set_range_id s addr len (Taint.Tagset.id tag)

let set_byte s addr tag = set_range s addr 1 tag

let tagged_bytes s = s.tagged
