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
   byte and no unions, and an idempotent store writes nothing. *)

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

type t = {
  space : Taint.Tagset.space;  (* interns every tag stored or unioned below *)
  regs : int array;  (* tag id per register, by [Isa.Reg.index] *)
  pages : page array;  (* [n_pages] slots, [no_page] until first tagged *)
  budget : int;  (* max live pages before saturation (max_int = none) *)
  mutable mapped : int;  (* slots not pointing at [no_page] *)
  mutable overflow : Taint.Tagset.t;
      (* union of every tag whose store was refused by the budget; once
         non-empty the shadow is degraded and every read is widened by
         this set — conservative over-tainting, taint is never lost *)
  mutable tagged : int;  (* total non-empty bytes across pages *)
}

let c_loads = Obs.Counter.make "harrier.shadow.loads"
let c_stores = Obs.Counter.make "harrier.shadow.stores"

(* One increment per shadow that crosses into saturation. *)
let c_degraded = Obs.Counter.make "harrier.degraded"
let c_refused = Obs.Counter.make "harrier.shadow.stores_refused"

let create ?page_budget ~space () =
  { space; regs = Array.make Isa.Reg.count 0;
    pages = Array.make n_pages no_page;
    budget = (match page_budget with Some b -> max 0 b | None -> max_int);
    mapped = 0; overflow = Taint.Tagset.empty; tagged = 0 }

let space s = s.space

let degraded s = not (Taint.Tagset.is_empty s.overflow)

let live_pages s = s.mapped

(* Refuse a store the page budget cannot accommodate: widen [overflow]
   instead, so subsequent reads still see the tag (and possibly more). *)
let refuse s tag =
  Obs.Counter.incr c_refused;
  if not (degraded s) then Obs.Counter.incr c_degraded;
  s.overflow <- Taint.Tagset.union s.space s.overflow tag

let clone s =
  { s with
    regs = Array.copy s.regs;
    pages =
      Array.map
        (fun p ->
          if p == no_page then p else { ids = Bytes.copy p.ids; live = p.live })
        s.pages }

let[@inline] reg s r = Taint.Tagset.of_id s.space s.regs.(Isa.Reg.index r)

let[@inline] set_reg s r tag = s.regs.(Isa.Reg.index r) <- Taint.Tagset.id tag

(* Page [i] of the table, [no_page] when unmapped or outside the
   address space. *)
let[@inline] page s i =
  if i < n_pages then Array.unsafe_get s.pages i else no_page

let[@inline] get_id p off =
  Int32.to_int (Bytes.get_int32_le p.ids (off lsl 2)) land 0xFFFF_FFFF

let[@inline] set_id p off id =
  Bytes.set_int32_le p.ids (off lsl 2) (Int32.of_int id)

(* Widen a read by the overflow set when the shadow is degraded; free
   (one pointer compare) otherwise. *)
let[@inline] widen s t =
  if Taint.Tagset.is_empty s.overflow then t
  else Taint.Tagset.union s.space t s.overflow

let empty_tag = Taint.Tagset.empty

(* Union the tags of bytes [i, stop) of [p] into [acc], whose id is
   [acc_id].  A byte carrying no tag, or the id already accumulated,
   costs one integer comparison, and the first tag joins an empty [acc]
   without a union.  The scans here and below are top-level tail loops,
   so no call allocates a closure. *)
let rec union_ids sp p i stop acc acc_id =
  if i >= stop then acc
  else begin
    let id = get_id p i in
    if id = acc_id || id = 0 then union_ids sp p (i + 1) stop acc acc_id
    else begin
      let t = Taint.Tagset.of_id sp id in
      if acc_id = 0 then union_ids sp p (i + 1) stop t id
      else begin
        let acc = Taint.Tagset.union sp acc t in
        union_ids sp p (i + 1) stop acc (Taint.Tagset.id acc)
      end
    end
  end

(* The union over the pages that [pos, stop) spans. *)
let rec union_pages s pos stop acc =
  if pos >= stop then acc
  else begin
    let off = pos land page_mask in
    let n = min (stop - pos) (page_size - off) in
    let p = page s (pos lsr page_bits) in
    union_pages s (pos + n) stop
      (if p == no_page then acc
       else union_ids s.space p off (off + n) acc (Taint.Tagset.id acc))
  end

let range s addr len =
  Obs.Counter.incr c_loads;
  let off = addr land page_mask in
  if len <= 0 then empty_tag
  else if off + len <= page_size then begin
    (* fast path: the whole range lives in one page *)
    let p = page s (addr lsr page_bits) in
    widen s
      (if p == no_page then empty_tag
       else union_ids s.space p off (off + len) empty_tag 0)
  end
  else
    (* only bytes inside the address space can carry a tag *)
    widen s (union_pages s (max addr 0) (min (addr + len) mem_size) empty_tag)

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

(* Store [tag] over bytes [off, off+n) of page [i], maintaining the live
   counters.  Idempotent stores — every byte already carries [tag], the
   common case when a loop re-copies the same buffer — are detected by
   id comparison and write nothing. *)
let set_in_page s i off n tag =
  let id = Taint.Tagset.id tag in
  let p = page s i in
  if p != no_page then begin
    let stop = off + n in
    if not (all_ids p off stop id) then begin
      let old_live = if n = page_size then p.live else count_live p off stop 0 in
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
  else if id <> 0 && i < n_pages then begin
    (* the page's first tagged bytes; clearing an unmapped page, or a
       store outside the address space, does nothing *)
    if s.mapped >= s.budget then refuse s tag
    else begin
      let p = { ids = Bytes.make (page_size lsl 2) '\000'; live = n } in
      fill p off n id;
      s.pages.(i) <- p;
      s.mapped <- s.mapped + 1;
      s.tagged <- s.tagged + n
    end
  end

let rec set_pages s pos stop tag =
  if pos < stop then begin
    let off = pos land page_mask in
    let n = min (stop - pos) (page_size - off) in
    set_in_page s (pos lsr page_bits) off n tag;
    set_pages s (pos + n) stop tag
  end

let set_range s addr len tag =
  if len > 0 then begin
    Obs.Counter.incr c_stores;
    let off = addr land page_mask in
    if off + len <= page_size then
      set_in_page s (addr lsr page_bits) off len tag
    else set_pages s (max addr 0) (min (addr + len) mem_size) tag
  end

let set_byte s addr tag = set_range s addr 1 tag

let tagged_bytes s = s.tagged
