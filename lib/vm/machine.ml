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
  mem : Bytes.t;
  mutable segs : segment list;
  mutable cur_seg : segment;
      (* one-entry fetch cache: consecutive instructions execute from the
         same segment, so [step] skips the segment-list scan *)
  mutable status : status;
  mutable at_bb_start : bool;
  h : hooks;
}

and segment = {
  seg_base : int;
  seg_insns : Isa.Insn.t array;
  seg_image : string;
  seg_kind : Binary.Image.kind;
  seg_lens : int array;
  seg_ops : (t -> unit) option array;
      (* compiled-insn slots, lazily filled by [step_block]; shared with
         every machine mapping the same image (see [ops_for]), so fleet
         workers decode each block once *)
}

and hooks = {
  mutable pre_insn : t -> int -> Isa.Insn.t -> unit;
  mutable on_bb : t -> int -> unit;
  mutable on_block : t -> segment -> int -> int -> bool;
}

(* Sentinel "no segment": an empty interval, so the fetch fast path
   below never matches it. *)
let no_seg =
  { seg_base = 0; seg_insns = [||]; seg_image = "";
    seg_kind = Binary.Image.Executable; seg_lens = [||]; seg_ops = [||] }

let no_hooks () =
  { pre_insn = (fun _ _ _ -> ());
    on_bb = (fun _ _ -> ());
    on_block = (fun _ _ _ _ -> false) }

let mem_size = 0x100000

exception Fault_exn of fault

(* Recycling pool for the 1 MiB address-space buffers.  Allocating (and
   faulting in) a megabyte per spawn dominates small-session setup, so
   a caller that runs many sequential worlds hands the same pool to
   every kernel and returns the buffers when a world is torn down.  A
   pooled buffer is zeroed (create) or fully overwritten (clone) before
   reuse, so guest-visible behaviour is identical to fresh allocation. *)
type mem_pool = {
  mutable mp_free : Bytes.t list;
  mutable mp_allocated : int;  (* buffers made because none was free *)
}

(* free buffers a pool retains: every corpus scenario but the four
   fork-heavy ones (13-25 spaces) runs within it, and each retained
   buffer is 1 MiB a serving process keeps resident per engine fork *)
let mem_pool_cap = 12

let mem_pool () = { mp_free = []; mp_allocated = 0 }

let pool_allocated p = p.mp_allocated

let pool_take p =
  match p.mp_free with
  | b :: rest ->
    p.mp_free <- rest;
    Some b
  | [] ->
    p.mp_allocated <- p.mp_allocated + 1;
    None

let fresh_mem = function
  | None -> Bytes.make mem_size '\000'
  | Some p ->
    (match pool_take p with
     | Some b ->
       Bytes.fill b 0 mem_size '\000';
       b
     | None -> Bytes.make mem_size '\000')

let copied_mem pool src =
  match pool with
  | None -> Bytes.copy src
  | Some p ->
    (match pool_take p with
     | Some b ->
       Bytes.blit src 0 b 0 mem_size;
       b
     | None -> Bytes.copy src)

let recycle_mem p m =
  (* membership check defends against double-recycling a machine, which
     would hand one buffer to two future machines *)
  if List.length p.mp_free < mem_pool_cap && not (List.memq m.mem p.mp_free)
  then
    p.mp_free <- m.mem :: p.mp_free

let create ?hooks ?pool () =
  let h = match hooks with Some h -> h | None -> no_hooks () in
  { regs = Array.make Isa.Reg.count 0; eip = 0; zf = false; sf = false;
    lt = false; mem = fresh_mem pool; segs = []; cur_seg = no_seg;
    status = Running; at_bb_start = true; h }

let hooks m = m.h

let clone ?pool m =
  { regs = Array.copy m.regs; eip = m.eip; zf = m.zf; sf = m.sf; lt = m.lt;
    mem = copied_mem pool m.mem; segs = m.segs; cur_seg = m.cur_seg;
    status = m.status; at_bb_start = m.at_bb_start; h = m.h }

let status m = m.status
let set_status m s = m.status <- s
let eip m = m.eip

let set_eip m a =
  m.eip <- a;
  m.at_bb_start <- true

let get_reg m r = m.regs.(Isa.Reg.index r)
let set_reg m r v = m.regs.(Isa.Reg.index r) <- v land 0xFFFFFFFF

let check_addr addr =
  if addr < 0 || addr >= mem_size then raise (Fault_exn (Bad_access addr))

let read_byte m addr =
  check_addr addr;
  Char.code (Bytes.get m.mem addr)

let write_byte m addr v =
  check_addr addr;
  Bytes.set m.mem addr (Char.chr (v land 0xFF))

let read_word m addr =
  check_addr addr;
  check_addr (addr + 3);
  Int32.to_int (Bytes.get_int32_le m.mem addr) land 0xFFFFFFFF

let write_word m addr v =
  check_addr addr;
  check_addr (addr + 3);
  Bytes.set_int32_le m.mem addr (Int32.of_int (v land 0xFFFFFFFF))

let read_bytes m addr len =
  check_addr addr;
  if len > 0 then check_addr (addr + len - 1);
  Bytes.sub_string m.mem addr len

let write_string m addr s =
  check_addr addr;
  if String.length s > 0 then check_addr (addr + String.length s - 1);
  Bytes.blit_string s 0 m.mem addr (String.length s)

let read_cstring m addr =
  check_addr addr;
  let rec find i =
    if i >= mem_size then i
    else if Bytes.get m.mem i = '\000' then i
    else find (i + 1)
  in
  let stop = find addr in
  Bytes.sub_string m.mem addr (stop - addr)

(* Per-image compiled-op tables, keyed by physical equality on the text
   array.  Linked images are interned per engine and shared by every
   forked fleet worker, so all machines mapping one image write into
   (and benefit from) the same slot array.  Slot stores race benignly
   across domains: a stale [None] read just recompiles the identical
   closure.  The registry is bounded; evicting an entry only forfeits
   sharing for images still mapped somewhere. *)
let ops_registry : (Isa.Insn.t array * (t -> unit) option array) list ref =
  ref []

let ops_mu = Mutex.create ()
let ops_registry_cap = 512

let ops_for text =
  Mutex.lock ops_mu;
  let ops =
    match List.find_opt (fun (t', _) -> t' == text) !ops_registry with
    | Some (_, ops) -> ops
    | None ->
      let ops = Array.make (Array.length text) None in
      let reg = (text, ops) :: !ops_registry in
      ops_registry :=
        (if List.length reg > ops_registry_cap then
           List.filteri (fun i _ -> i < ops_registry_cap / 2) reg
         else reg);
      ops
  in
  Mutex.unlock ops_mu;
  ops

let map_image m (img : Binary.Image.t) =
  m.segs <-
    { seg_base = img.base; seg_insns = img.text; seg_image = img.path;
      seg_kind = img.kind; seg_lens = img.blocks; seg_ops = ops_for img.text }
    :: m.segs;
  (* the new segment may shadow the cached one *)
  m.cur_seg <- no_seg;
  List.iter
    (fun (s : Binary.Section.t) ->
      write_string m s.addr (Bytes.to_string s.bytes))
    img.sections

let segments m = m.segs

let segment_at m addr =
  List.find_opt
    (fun s -> addr >= s.seg_base && addr < s.seg_base + Array.length s.seg_insns)
    m.segs

(* Observability: the per-instruction counters are single unboxed field
   writes (see lib/obs), cheap enough for the step loop. *)
let c_instructions = Obs.Counter.make "vm.instructions"
let c_blocks = Obs.Counter.make "vm.blocks"
let c_fetch_hits = Obs.Counter.make "vm.fetch_cache.hits"
let c_fetch_misses = Obs.Counter.make "vm.fetch_cache.misses"

(* Tiering counters.  [decoded] counts compiled-insn slots filled here;
   [promoted]/[deopt] are incremented by the tier policy in the monitor
   (Obs counters are interned by name, so both layers share the cell). *)
let c_decoded = Obs.Counter.make "vm.blocks.decoded"
let _c_promoted = Obs.Counter.make "vm.blocks.promoted"
let _c_deopt = Obs.Counter.make "vm.blocks.deopt"

(* Allocation-free fetch: hit the cached segment or rescan; [no_seg]
   means no segment maps [addr]. *)
let seg_for m addr =
  let s = m.cur_seg in
  if addr - s.seg_base >= 0 && addr - s.seg_base < Array.length s.seg_insns
  then begin
    Obs.Counter.incr c_fetch_hits;
    s
  end
  else begin
    Obs.Counter.incr c_fetch_misses;
    match segment_at m addr with
    | Some s ->
      m.cur_seg <- s;
      s
    | None -> no_seg
  end

let fetch m addr =
  let s = seg_for m addr in
  if s == no_seg then None else Some s.seg_insns.(addr - s.seg_base)

let eff_addr m (r : Isa.Operand.mem_ref) =
  let v = function None -> 0 | Some reg -> get_reg m reg in
  (r.disp + v r.base + (v r.index * r.scale)) land 0xFFFFFFFF

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
   the monitor tags the destination registers HARDWARE. *)
let cpuid_values = (0x756E_6547, 0x4963_6E74, 0x6C65_746E, 0x0000_0F4A)

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
  let next () = m.eip <- m.eip + 1 in
  match insn with
  | Mov (sz, dst, src) ->
    write_operand m sz dst (read_operand m sz src);
    next ();
    Continue
  | Lea (r, ref) ->
    set_reg m r (eff_addr m ref);
    next ();
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
    next ();
    Continue
  | Test (a, b) ->
    set_flags m (read_operand m W a land read_operand m W b);
    next ();
    Continue
  | Push a ->
    push m (read_operand m W a);
    next ();
    Continue
  | Pop dst ->
    let v = pop m in
    write_operand m W dst v;
    next ();
    Continue
  | Jmp t ->
    m.eip <- target_value m t;
    Continue
  | Jcc (c, t) ->
    if cond_holds m c then m.eip <- target_value m t else next ();
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
    next ();
    Syscall n
  | Cpuid ->
    let a, b, c, d = cpuid_values in
    set_reg m EAX a;
    set_reg m EBX b;
    set_reg m ECX c;
    set_reg m EDX d;
    next ();
    Continue
  | Nop ->
    next ();
    Continue
  | Hlt ->
    m.status <- Halted;
    Stopped Halted

(* One interpreted instruction from an already-resolved segment; the
   single [seg_for] call stays with the caller so the fetch-cache
   counters count each fetch exactly once on every path. *)
let step_in m seg =
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

let step m =
  match m.status with
  | (Halted | Faulted _) as s -> Stopped s
  | Running -> step_in m (seg_for m m.eip)

(* Compile one body-safe instruction to a closure replicating [exec]'s
   semantics exactly (flags, masking, faults, eip advance).  Only
   called from [step_block] on instructions [Isa.Block.body_safe]
   admits; terminators and [Div] always stay with the interpreter. *)
let compile_insn insn =
  let open Isa.Insn in
  match insn with
  | Mov (sz, dst, src) ->
    fun m ->
      write_operand m sz dst (read_operand m sz src);
      m.eip <- m.eip + 1
  | Lea (r, ref) ->
    fun m ->
      set_reg m r (eff_addr m ref);
      m.eip <- m.eip + 1
  | Add (d, s) -> fun m -> alu m ( + ) d s
  | Sub (d, s) -> fun m -> alu m ( - ) d s
  | And (d, s) -> fun m -> alu m ( land ) d s
  | Or (d, s) -> fun m -> alu m ( lor ) d s
  | Xor (d, s) -> fun m -> alu m ( lxor ) d s
  | Mul (d, s) -> fun m -> alu m ( * ) d s
  | Shl (d, s) -> fun m -> alu m shl d s
  | Shr (d, s) -> fun m -> alu m shr d s
  | Inc d -> fun m -> alu m incr1 d (Imm 0)
  | Dec d -> fun m -> alu m decr1 d (Imm 0)
  | Cmp (sz, a, b) ->
    fun m ->
      let x = read_operand m sz a and y = read_operand m sz b in
      let sx, sy =
        match sz with
        | B -> x, y
        | W -> sign32 x, sign32 y
      in
      m.zf <- sx = sy;
      m.lt <- sx < sy;
      m.sf <- m.lt;
      m.eip <- m.eip + 1
  | Test (a, b) ->
    fun m ->
      set_flags m (read_operand m W a land read_operand m W b);
      m.eip <- m.eip + 1
  | Push a ->
    fun m ->
      push m (read_operand m W a);
      m.eip <- m.eip + 1
  | Pop dst ->
    fun m ->
      let v = pop m in
      write_operand m W dst v;
      m.eip <- m.eip + 1
  | Cpuid ->
    fun m ->
      let a, b, c, d = cpuid_values in
      set_reg m EAX a;
      set_reg m EBX b;
      set_reg m ECX c;
      set_reg m EDX d;
      m.eip <- m.eip + 1
  | Nop -> fun m -> m.eip <- m.eip + 1
  | Div _ | Jmp _ | Jcc _ | Call _ | Ret | Int _ | Hlt ->
    invalid_arg "Machine.compile_insn: not body-safe"

(* Tiered dispatch: at a basic-block start whose straight-line body fits
   the remaining [fuel], offer the block to the [on_block] hook.  If it
   accepts (the tier policy has promoted the block and applied — or
   deliberately skipped — its taint summary), the body runs as compiled
   closures with no per-instruction hook calls; the terminator and every
   other case take the interpreted [step] path unchanged.  Returns the
   outcome plus the number of instructions retired (for quantum
   accounting). *)
let step_block m ~fuel =
  match m.status with
  | (Halted | Faulted _) as s -> (Stopped s, 0)
  | Running ->
    let seg = seg_for m m.eip in
    if not m.at_bb_start || seg == no_seg then (step_in m seg, 1)
    else begin
      let off = m.eip - seg.seg_base in
      let len = seg.seg_lens.(off) in
      if len = 0 || len > fuel || not (m.h.on_block m seg m.eip len) then
        (step_in m seg, 1)
      else begin
        Obs.Counter.incr c_blocks;
        m.h.on_bb m m.eip;
        m.at_bb_start <- false;
        let ops = seg.seg_ops in
        (* per-insn accounting is hoisted to one [add] per kind (the
           first fetch was counted by [seg_for]; the rest of the body
           would all hit the one-entry cache); a mid-block fault rolls
           the difference back so the counts match interpretation
           exactly *)
        Obs.Counter.add c_instructions len;
        Obs.Counter.add c_fetch_hits (len - 1);
        let rec run i =
          if i >= len then (Continue, len)
          else begin
            let op =
              match ops.(off + i) with
              | Some f -> f
              | None ->
                Obs.Counter.incr c_decoded;
                let f = compile_insn seg.seg_insns.(off + i) in
                ops.(off + i) <- Some f;
                f
            in
            match op m with
            | () -> run (i + 1)
            | exception Fault_exn f ->
              m.status <- Faulted f;
              Obs.Counter.add c_instructions (i + 1 - len);
              Obs.Counter.add c_fetch_hits (i - (len - 1));
              (Stopped m.status, i + 1)
          end
        in
        run 0
      end
    end

let pp_fault ppf = function
  | Bad_fetch a -> Fmt.pf ppf "bad fetch at 0x%x" a
  | Bad_access a -> Fmt.pf ppf "bad memory access at 0x%x" a
  | Div_by_zero -> Fmt.string ppf "division by zero"

let pp_status ppf = function
  | Running -> Fmt.string ppf "running"
  | Halted -> Fmt.string ppf "halted"
  | Faulted f -> Fmt.pf ppf "faulted: %a" pp_fault f
