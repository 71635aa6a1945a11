type fault =
  | Bad_fetch of int
  | Bad_access of int
  | Div_by_zero

type status = Running | Halted | Faulted of fault

type t = {
  regs : int array;
  mutable eip : int;
  mutable zf : bool;
  mutable sf : bool;
  mutable lt : bool;
  pages : Bytes.t array;
      (* [mem_size lsr page_bits] slots, each [zero_page] until first
         written *)
  mutable segs : segment list;
  mutable cur_seg : segment;
      (* one-entry fetch cache: consecutive instructions execute from the
         same segment, so [step] skips the segment-list scan *)
  mutable status : status;
  mutable at_bb_start : bool;
  mutable h : hooks;
}

and segment = {
  seg_base : int;
  seg_insns : Isa.Insn.t array;
  seg_image : string;
  seg_kind : Binary.Image.kind;
}

and hooks = {
  pre_insn : t -> int -> Isa.Insn.t -> unit;
  on_bb : t -> int -> unit;
}

(* Sentinel "no segment": an empty interval, so the fetch fast path
   below never matches it. *)
let no_seg =
  { seg_base = 0; seg_insns = [||]; seg_image = "";
    seg_kind = Binary.Image.Executable }

let no_hooks =
  { pre_insn = (fun _ _ _ -> ());
    on_bb = (fun _ _ -> ()) }

(* Guest memory is demand-paged: [mem_size] bytes in [page_size] pages.
   Every slot of a fresh machine points at [zero_page], which nothing
   ever writes; the first store into a slot gives it a private zeroed
   page, so an address space costs only the pages its guest wrote, and
   [clone] (fork) copies only those. *)
let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let mem_size = 0x100000

let zero_page = Bytes.make page_size '\000'

exception Fault_exn of fault

let create () =
  { regs = Array.make Isa.Reg.count 0; eip = 0; zf = false; sf = false;
    lt = false; pages = Array.make (mem_size lsr page_bits) zero_page;
    segs = []; cur_seg = no_seg; status = Running; at_bb_start = true;
    h = no_hooks }

let set_hooks m h = m.h <- h

(* Eager copy of the private pages, no copy-on-write: a fork inherits
   few pages, and an ownership check on every store would tax the
   dense single-process guests. *)
let clone m =
  { regs = Array.copy m.regs; eip = m.eip; zf = m.zf; sf = m.sf; lt = m.lt;
    pages =
      Array.map (fun p -> if p == zero_page then p else Bytes.copy p) m.pages;
    segs = m.segs; cur_seg = m.cur_seg; status = m.status;
    at_bb_start = m.at_bb_start; h = m.h }

let resident_pages m =
  Array.fold_left (fun n p -> if p == zero_page then n else n + 1) 0 m.pages

let eip m = m.eip

let status m = m.status

let set_eip m a =
  m.eip <- a;
  m.at_bb_start <- true

let get_reg m r = m.regs.(Isa.Reg.index r)
let set_reg m r v = m.regs.(Isa.Reg.index r) <- v land 0xFFFFFFFF

let check_addr addr =
  if addr < 0 || addr >= mem_size then raise (Fault_exn (Bad_access addr))

(* Every accessor checks both ends of its range before [page] is
   reached, so the table's own bounds check never fails. *)
let[@inline] page m addr = m.pages.(addr lsr page_bits)

let[@inline never] own_page m i =
  let p = Bytes.make page_size '\000' in
  m.pages.(i) <- p;
  p

let[@inline] writable_page m addr =
  let p = page m addr in
  if p != zero_page then p else own_page m (addr lsr page_bits)

let read_byte m addr =
  check_addr addr;
  Char.code (Bytes.get (page m addr) (addr land page_mask))

let write_byte m addr v =
  check_addr addr;
  Bytes.set (writable_page m addr) (addr land page_mask)
    (Char.chr (v land 0xFF))

(* Words that straddle a page boundary, byte by byte (little-endian). *)
let[@inline never] read_word_straddle m addr =
  let b i =
    Char.code (Bytes.get (page m (addr + i)) ((addr + i) land page_mask))
  in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

let[@inline never] write_word_straddle m addr v =
  for i = 0 to 3 do
    Bytes.set (writable_page m (addr + i)) ((addr + i) land page_mask)
      (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let read_word m addr =
  check_addr addr;
  check_addr (addr + 3);
  let off = addr land page_mask in
  if off <= page_size - 4 then
    Int32.to_int (Bytes.get_int32_le (page m addr) off) land 0xFFFFFFFF
  else read_word_straddle m addr

let write_word m addr v =
  check_addr addr;
  check_addr (addr + 3);
  let off = addr land page_mask in
  if off <= page_size - 4 then
    Bytes.set_int32_le (writable_page m addr) off
      (Int32.of_int (v land 0xFFFFFFFF))
  else write_word_straddle m addr v

(* [chunks addr len f] calls [f addr off pos n] for each page-bounded
   piece of [addr, addr + len): [n] bytes at offset [off] of the page
   holding [addr], [pos] bytes into the range. *)
let rec chunks addr len pos f =
  if len > 0 then begin
    let off = addr land page_mask in
    let n = min len (page_size - off) in
    f addr off pos n;
    chunks (addr + n) (len - n) (pos + n) f
  end

let copy_out m addr len =
  let b = Bytes.create len in
  chunks addr len 0 (fun a off pos n -> Bytes.blit (page m a) off b pos n);
  Bytes.unsafe_to_string b

let read_bytes m addr len =
  check_addr addr;
  if len > 0 then check_addr (addr + len - 1);
  copy_out m addr len

let write_string m addr s =
  let len = String.length s in
  check_addr addr;
  if len > 0 then check_addr (addr + len - 1);
  chunks addr len 0 (fun a off pos n ->
      Bytes.blit_string s pos (writable_page m a) off n)

let read_cstring m addr =
  check_addr addr;
  let rec stop a =
    if a >= mem_size then a
    else
      let off = a land page_mask in
      match Bytes.index_from_opt (page m a) off '\000' with
      | Some i -> a - off + i
      | None -> stop (a - off + page_size)
  in
  copy_out m addr (stop addr - addr)

let map_image m (img : Binary.Image.t) =
  m.segs <-
    { seg_base = img.base; seg_insns = img.text; seg_image = img.path;
      seg_kind = img.kind }
    :: m.segs;
  (* the new segment may shadow the cached one *)
  m.cur_seg <- no_seg;
  List.iter
    (fun (s : Binary.Section.t) ->
      write_string m s.addr (Bytes.to_string s.bytes))
    img.sections

let segment_at m addr =
  List.find_opt
    (fun s -> addr >= s.seg_base && addr < s.seg_base + Array.length s.seg_insns)
    m.segs

(* Observability.  [step] counts as it goes; [run], the dense path,
   counts in locals and settles each counter with one [add] per call
   (see lib/obs: an [incr] is a domain-local lookup, too dear per
   instruction). *)
let c_instructions = Obs.Counter.make "vm.instructions"
let c_blocks = Obs.Counter.make "vm.blocks"
let c_fetch_hits = Obs.Counter.make "vm.fetch_cache.hits"
let c_fetch_misses = Obs.Counter.make "vm.fetch_cache.misses"

(* Allocation-free fetch: [cached m addr] when the cached segment maps
   [addr]; otherwise [rescan], which yields [no_seg] when no segment
   maps it.  The callers count the hit or miss. *)
let[@inline] cached m addr =
  let s = m.cur_seg in
  addr - s.seg_base >= 0 && addr - s.seg_base < Array.length s.seg_insns

let[@inline never] rescan m addr =
  match segment_at m addr with
  | Some s ->
    m.cur_seg <- s;
    s
  | None -> no_seg

let seg_for m addr =
  if cached m addr then begin
    Obs.Counter.incr c_fetch_hits;
    m.cur_seg
  end
  else begin
    Obs.Counter.incr c_fetch_misses;
    rescan m addr
  end

let fetch m addr =
  let s = seg_for m addr in
  if s == no_seg then None else Some s.seg_insns.(addr - s.seg_base)

(* A top-level helper rather than a local function over [m], which
   would allocate a closure per memory operand. *)
let[@inline] reg_or_zero m = function None -> 0 | Some r -> get_reg m r

let eff_addr m (r : Isa.Operand.mem_ref) =
  (r.disp + reg_or_zero m r.base + (reg_or_zero m r.index * r.scale))
  land 0xFFFFFFFF

let read_operand m size op =
  let mask v = match size with
    | Isa.Insn.B -> v land 0xFF
    | Isa.Insn.W -> v land 0xFFFFFFFF
  in
  match op with
  | Isa.Operand.Imm n -> mask n
  | Isa.Operand.Reg r -> mask (get_reg m r)
  | Isa.Operand.Mem ref ->
    let addr = eff_addr m ref in
    (match size with
     | Isa.Insn.B -> read_byte m addr
     | Isa.Insn.W -> read_word m addr)

let write_operand m size op v =
  match op with
  | Isa.Operand.Imm _ -> failwith "Machine: immediate destination"
  | Isa.Operand.Reg r ->
    (match size with
     | Isa.Insn.B -> set_reg m r (v land 0xFF)
     | Isa.Insn.W -> set_reg m r v)
  | Isa.Operand.Mem ref ->
    let addr = eff_addr m ref in
    (match size with
     | Isa.Insn.B -> write_byte m addr v
     | Isa.Insn.W -> write_word m addr v)

let sign32 v = if v land 0x80000000 <> 0 then v - 0x1_0000_0000 else v

let set_flags m r =
  let r = r land 0xFFFFFFFF in
  m.zf <- r = 0;
  m.sf <- r land 0x80000000 <> 0;
  m.lt <- m.sf

let cond_holds m = function
  | Isa.Insn.Z -> m.zf
  | Isa.Insn.NZ -> not m.zf
  | Isa.Insn.L -> m.lt
  | Isa.Insn.GE -> not m.lt
  | Isa.Insn.LE -> m.lt || m.zf
  | Isa.Insn.G -> not (m.lt || m.zf)
  | Isa.Insn.S -> m.sf
  | Isa.Insn.NS -> not m.sf

type outcome =
  | Continue
  | Syscall of int
  | Stopped of status

let target_value m op = read_operand m Isa.Insn.W op

let push m v =
  let sp = get_reg m ESP - 4 in
  set_reg m ESP sp;
  write_word m sp v

let pop m =
  let sp = get_reg m ESP in
  let v = read_word m sp in
  set_reg m ESP (sp + 4);
  v

(* cpuid writes a fixed processor identity; the interesting part is that
   the monitor tags the destination registers HARDWARE.  A recursion
   rather than [List.iter], so [exec] stays closure-free. *)
let rec set_regs m = function
  | [] -> ()
  | (r, v) :: rest ->
    set_reg m r v;
    set_regs m rest

(* Saturated top-level helper, so [exec] allocates no closures on the
   per-instruction path; the operator arguments below are static
   constant closures. *)
let alu m f dst src =
  let a = read_operand m Isa.Insn.W dst and b = read_operand m Isa.Insn.W src in
  let r = f a b land 0xFFFFFFFF in
  set_flags m r;
  write_operand m Isa.Insn.W dst r;
  m.eip <- m.eip + 1

let sdiv a b = sign32 a / sign32 b
let shl a b = a lsl (b land 31)
let shr a b = a lsr (b land 31)
let incr1 a _ = a + 1
let decr1 a _ = a - 1

let exec m insn =
  let open Isa.Insn in
  match insn with
  | Mov (sz, dst, src) ->
    write_operand m sz dst (read_operand m sz src);
    m.eip <- m.eip + 1;
    Continue
  | Lea (r, ref) ->
    set_reg m r (eff_addr m ref);
    m.eip <- m.eip + 1;
    Continue
  | Add (d, s) -> alu m ( + ) d s; Continue
  | Sub (d, s) -> alu m ( - ) d s; Continue
  | And (d, s) -> alu m ( land ) d s; Continue
  | Or (d, s) -> alu m ( lor ) d s; Continue
  | Xor (d, s) -> alu m ( lxor ) d s; Continue
  | Mul (d, s) -> alu m ( * ) d s; Continue
  | Div (d, s) ->
    let b = read_operand m W s in
    if b = 0 then raise (Fault_exn Div_by_zero);
    alu m sdiv d s;
    Continue
  | Shl (d, s) -> alu m shl d s; Continue
  | Shr (d, s) -> alu m shr d s; Continue
  | Inc d -> alu m incr1 d (Imm 0); Continue
  | Dec d -> alu m decr1 d (Imm 0); Continue
  | Cmp (sz, a, b) ->
    let x = read_operand m sz a and y = read_operand m sz b in
    let sx, sy =
      match sz with
      | B -> x, y
      | W -> sign32 x, sign32 y
    in
    m.zf <- sx = sy;
    m.lt <- sx < sy;
    m.sf <- m.lt;
    m.eip <- m.eip + 1;
    Continue
  | Test (a, b) ->
    set_flags m (read_operand m W a land read_operand m W b);
    m.eip <- m.eip + 1;
    Continue
  | Push a ->
    push m (read_operand m W a);
    m.eip <- m.eip + 1;
    Continue
  | Pop dst ->
    let v = pop m in
    write_operand m W dst v;
    m.eip <- m.eip + 1;
    Continue
  | Jmp t ->
    m.eip <- target_value m t;
    Continue
  | Jcc (c, t) ->
    m.eip <- (if cond_holds m c then target_value m t else m.eip + 1);
    Continue
  | Call t ->
    let dest = target_value m t in
    push m (m.eip + 1);
    m.eip <- dest;
    Continue
  | Ret ->
    m.eip <- pop m;
    Continue
  | Int n ->
    m.eip <- m.eip + 1;
    Syscall n
  | Cpuid ->
    set_regs m cpuid_words;
    m.eip <- m.eip + 1;
    Continue
  | Nop ->
    m.eip <- m.eip + 1;
    Continue
  | Hlt ->
    m.status <- Halted;
    Stopped Halted

let step m =
  match m.status with
  | (Halted | Faulted _) as s -> Stopped s
  | Running ->
    let seg = seg_for m m.eip in
    if seg == no_seg then begin
      m.status <- Faulted (Bad_fetch m.eip);
      Stopped m.status
    end
    else begin
      let insn = seg.seg_insns.(m.eip - seg.seg_base) in
      try
        Obs.Counter.incr c_instructions;
        if m.at_bb_start then begin
          Obs.Counter.incr c_blocks;
          m.h.on_bb m m.eip
        end;
        m.h.pre_insn m m.eip insn;
        m.at_bb_start <- Isa.Insn.writes_control_flow insn;
        exec m insn
      with Fault_exn f ->
        m.status <- Faulted f;
        Stopped m.status
    end

(* One [run]'s counts, settled into the counters.  Every fetch attempt
   retires, so the fetch hits are the retired count less the misses; a
   bad fetch executes nothing, so it is no instruction. *)
let settle out ~retired ~misses ~blocks =
  let bad_fetch =
    match out with Stopped (Faulted (Bad_fetch _)) -> 1 | _ -> 0
  in
  Obs.Counter.add c_instructions (retired - bad_fetch);
  Obs.Counter.add c_blocks blocks;
  Obs.Counter.add c_fetch_hits (retired - misses);
  Obs.Counter.add c_fetch_misses misses

(* The quantum loop: each instruction interprets as [step] interprets
   it.  The counts are local variables, each bumped before what it
   counts runs, so they are exact when a fault cuts the loop short; one
   handler covers the whole loop. *)
let run m ~fuel =
  match m.status with
  | (Halted | Faulted _) as s -> (Stopped s, 0)
  | Running ->
    let out = ref Continue and retired = ref 0 and misses = ref 0 in
    let blocks = ref 0 in
    (match
       while !out == Continue && !retired < fuel do
         let eip = m.eip in
         let seg =
           if cached m eip then m.cur_seg
           else begin
             incr misses;
             rescan m eip
           end
         in
         incr retired;
         if seg == no_seg then begin
           m.status <- Faulted (Bad_fetch eip);
           out := Stopped m.status
         end
         else begin
           let insn = seg.seg_insns.(eip - seg.seg_base) in
           if m.at_bb_start then begin
             incr blocks;
             m.h.on_bb m eip
           end;
           m.h.pre_insn m eip insn;
           m.at_bb_start <- Isa.Insn.writes_control_flow insn;
           out := exec m insn
         end
       done
     with
     | () -> ()
     | exception Fault_exn f ->
       m.status <- Faulted f;
       out := Stopped m.status
     | exception e ->
       settle !out ~retired:!retired ~misses:!misses ~blocks:!blocks;
       raise e);
    settle !out ~retired:!retired ~misses:!misses ~blocks:!blocks;
    (!out, !retired)

let pp_fault ppf = function
  | Bad_fetch a -> Fmt.pf ppf "bad fetch at 0x%x" a
  | Bad_access a -> Fmt.pf ppf "bad memory access at 0x%x" a
  | Div_by_zero -> Fmt.string ppf "division by zero"

let pp_status ppf = function
  | Running -> Fmt.string ppf "running"
  | Halted -> Fmt.string ppf "halted"
  | Faulted f -> Fmt.pf ppf "faulted: %a" pp_fault f
