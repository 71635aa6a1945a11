(* Per-block taint transfer summaries: the Section 7.3.1 rules lifted
   from one instruction to one straight-line block.

   [compile] analyses a body symbolically, over block-entry state: which
   entry registers, entry memory ranges and constant provenance feed
   each written location.  Addresses are affine expressions over entry
   register values; anything the analysis cannot prove (a non-affine
   address, a read that may alias an earlier in-block write) rejects
   the block, which then stays interpreted.  The analysis gives each
   touched range and each written expression an index as it goes, and
   the guard expressions the indices after those, so its result is
   already the flat arrays [apply] runs.

   [apply] replays a summary against a live [Shadow.t]: evaluate every
   touched address (affine over the machine's entry registers),
   bounds-check them all (any miss means the interpreter must run the
   block so the fault surfaces at exactly the right instruction),
   evaluate every taint expression against the {e entry} shadow, then
   apply the writes in program order.

   [apply] is the whole point of the compiled tier, so its steady state
   allocates nothing but its result, and only when the block's guard is
   tainted ([Applied (Some tag)], 4 words; [Applied None] is built once
   and [Deopt] is a constant): its loops are [for]s and top-level
   recursions over parallel arrays (no closures, no tuple keys, no ref
   cells), and every taint expression memoizes its last input tags.
   Tag sets are interned, so "the inputs didn't change since the
   previous application" is a handful of pointer compares — and a tight
   guest loop whose operand tags have stabilized (the overwhelmingly
   common case) replays its entire transfer without touching the union
   memo at all.

   Summaries are built per run and applied single-threaded, so the
   scratch and memo arrays live inside the summary value. *)

type outcome =
  | Applied of Taint.Tagset.t option
      (* summary applied; the payload is the new trigger-guard tag, if
         any compare/test in the block evaluated non-empty *)
  | Deopt  (* bounds precondition failed: interpret this execution *)

type addr = {
  a_regs : Isa.Reg.t array;  (* parallel with [a_coefs] *)
  a_coefs : int array;
  a_disp : int;
  a_len : int;
}

type ctex = {
  c_regs : Isa.Reg.t array;  (* entry register tags *)
  c_mems : int array;  (* indices into [s_addrs], entry range tags *)
  c_imm : bool;
  c_hw : bool;
  c_in : Taint.Tagset.t array;  (* memo: last input tags, regs then mems *)
  mutable c_out : Taint.Tagset.t;  (* memo: union of [c_in] (+ imm/hw) *)
  mutable c_valid : bool;  (* [c_in]/[c_out] hold a real evaluation *)
}

type cwrite =
  | W_reg of Isa.Reg.t * int  (* register, texpr index *)
  | W_mem of int * int  (* addr index, texpr index *)

type t = {
  s_space : Taint.Tagset.space;
  s_imm : Taint.Tagset.t;  (* the image's BINARY provenance tag *)
  s_hw : Taint.Tagset.t;
  s_addrs : addr array;
  s_texprs : ctex array;
  s_writes : cwrite array;  (* program order; later writes win *)
  s_guards : int array;  (* texpr indices, program order *)
  s_vals : int array;  (* scratch: evaluated address per s_addrs entry *)
  s_tags : Taint.Tagset.t array;  (* scratch: evaluated tag per texpr *)
}

(* ------------------------------------------------------------------ *)
(* Affine address expressions over entry register values               *)

(* disp + sum of coefs.(i) * (entry value of the register of index i) *)
type avalue = {
  coefs : int array;
  disp : int;
}

let const n = { coefs = Array.make Isa.Reg.count 0; disp = n }

(* [av_add k a b] is a + k*b *)
let av_add k a b =
  { coefs = Array.map2 (fun x y -> x + (k * y)) a.coefs b.coefs;
    disp = a.disp + (k * b.disp) }

let av_offset a n = { a with disp = a.disp + n }

(* ------------------------------------------------------------------ *)
(* Entry-relative taint expressions                                    *)

(* The tag a location will hold, expressed over block-entry state: the
   union of the entry tags of the registers in [x_regs] (bit
   [Reg.index r] for register [r]), of the entry memory ranges listed
   in [x_mems] (indices into the block's touched ranges), the segment's
   BINARY tag when [x_imm], and the HARDWARE singleton when [x_hw]. *)
type texpr = {
  x_regs : int;
  x_mems : int list;
  x_imm : bool;
  x_hw : bool;
}

let bottom = { x_regs = 0; x_mems = []; x_imm = false; x_hw = false }
let imm_texpr = { bottom with x_imm = true }
let hw_texpr = { bottom with x_hw = true }

let t_union a b =
  { x_regs = a.x_regs lor b.x_regs;
    x_mems =
      a.x_mems @ List.filter (fun i -> not (List.mem i a.x_mems)) b.x_mems;
    x_imm = a.x_imm || b.x_imm;
    x_hw = a.x_hw || b.x_hw }

(* ------------------------------------------------------------------ *)
(* The analysis                                                        *)

(* Distinct values in first-seen order, newest first: a value's index is
   its position from the oldest. *)
type 'a table = {
  mutable items : 'a list;
  mutable n : int;
}

let index tbl x =
  let rec find i = function
    | [] ->
      tbl.items <- x :: tbl.items;
      tbl.n <- tbl.n + 1;
      tbl.n - 1
    | y :: rest -> if y = x then i else find (i - 1) rest
  in
  find (tbl.n - 1) tbl.items

let to_array f tbl = Array.of_list (List.rev_map f tbl.items)

(* Analysis state: per-register affine value (for address computation)
   and per-register entry-relative taint expression, the in-block
   memory writes for read-after-write resolution, and the summary being
   built. *)
type state = {
  vals : avalue option array;  (* indexed by Reg.index *)
  tex : texpr array;
  mutable stores : (avalue * int * texpr) list;  (* latest first *)
  ranges : (avalue * int) table;  (* every range the body touches *)
  texprs : texpr table;  (* every written or guard expression *)
  mutable writes : cwrite list;  (* program order, reversed *)
  mutable guards : texpr list;  (* reversed *)
}

exception Unsummarizable

let reg_val st r =
  match st.vals.(Isa.Reg.index r) with
  | Some v -> v
  | None -> raise Unsummarizable

let set_val st r v = st.vals.(Isa.Reg.index r) <- v

(* Effective address of a memory reference, as an affine expression
   over entry registers (pre-instruction register state). *)
let aval_of_ref st (m : Isa.Operand.mem_ref) =
  let base =
    match m.base with Some r -> reg_val st r | None -> const 0
  in
  let a =
    match m.index with
    | Some r -> av_add m.scale base (reg_val st r)
    | None -> base
  in
  av_offset a m.disp

(* Resolve a memory read against the in-block writes, latest first:
   exact match takes the written expression; provable disjointness
   skips; anything else (partial overlap, unprovably distinct bases)
   makes the block unsummarizable.  Falls through to the entry range. *)
let mem_read st av len =
  let ai = index st.ranges (av, len) in
  let rec resolve = function
    | [] -> { bottom with x_mems = [ ai ] }
    | (wav, wlen, wtex) :: rest ->
      if wav.coefs = av.coefs then
        if av.disp = wav.disp && len = wlen then wtex
        else if av.disp + len <= wav.disp || wav.disp + wlen <= av.disp
        then resolve rest
        else raise Unsummarizable
      else raise Unsummarizable
  in
  resolve st.stores

let mem_write st av len tex =
  let ai = index st.ranges (av, len) in
  st.stores <- (av, len, tex) :: st.stores;
  st.writes <- W_mem (ai, index st.texprs tex) :: st.writes

let reg_write st r tex =
  st.tex.(Isa.Reg.index r) <- tex;
  st.writes <- W_reg (r, index st.texprs tex) :: st.writes

(* Operand taint at the current program point — the [Dataflow] operand
   rule, with immediates mapping to the segment tag.  The guard rule
   passes [~imm:bottom]: only {e data} taint reaching a compare marks
   trigger-gated flow, and taint that an earlier in-block move planted
   in a register still flows through [st.tex]. *)
let op_texpr ?(imm = imm_texpr) st sz (op : Isa.Operand.t) =
  match op with
  | Imm _ -> imm
  | Reg r -> st.tex.(Isa.Reg.index r)
  | Mem m -> mem_read st (aval_of_ref st m) (Isa.Insn.size_bytes sz)

let write_op st sz (op : Isa.Operand.t) tex =
  match op with
  | Imm _ -> raise Unsummarizable
  | Reg r -> reg_write st r tex
  | Mem m -> mem_write st (aval_of_ref st m) (Isa.Insn.size_bytes sz) tex

let guard st sz a b =
  let g =
    t_union (op_texpr ~imm:bottom st sz a) (op_texpr ~imm:bottom st sz b)
  in
  if g <> bottom then st.guards <- g :: st.guards

(* Affine tracking of register {e values} across the instruction, after
   its taint transfer was recorded (all address evaluation above used
   the pre-instruction state, matching the pre-execution hook). *)
let val_of_operand st (op : Isa.Operand.t) =
  match op with
  | Imm n -> Some (const n)
  | Reg r -> st.vals.(Isa.Reg.index r)
  | Mem _ -> None

let esp = Isa.Reg.ESP

let transfer st (insn : Isa.Insn.t) =
  match insn with
  | Mov (sz, dst, src) ->
    let t = op_texpr st sz src in
    write_op st sz dst t;
    (match dst, sz with
     | Isa.Operand.Reg r, Isa.Insn.W -> set_val st r (val_of_operand st src)
     | Isa.Operand.Reg r, Isa.Insn.B -> set_val st r None  (* zero-extended *)
     | (Isa.Operand.Mem _ | Isa.Operand.Imm _), _ -> ())
  | Lea (r, m) ->
    let reg_tex = function
      | None -> bottom
      | Some reg -> st.tex.(Isa.Reg.index reg)
    in
    let av = aval_of_ref st m in
    reg_write st r
      (t_union imm_texpr (t_union (reg_tex m.base) (reg_tex m.index)));
    set_val st r (Some av)
  | Add (d, s) | Sub (d, s) | And (d, s) | Or (d, s) | Xor (d, s)
  | Mul (d, s) | Shl (d, s) | Shr (d, s) ->
    let t =
      t_union (op_texpr st Isa.Insn.W d) (op_texpr st Isa.Insn.W s)
    in
    write_op st Isa.Insn.W d t;
    (match d with
     | Isa.Operand.Reg r ->
       let v =
         match insn, st.vals.(Isa.Reg.index r), val_of_operand st s with
         | Add _, Some a, Some b -> Some (av_add 1 a b)
         | Sub _, Some a, Some b -> Some (av_add (-1) a b)
         | _ -> None
       in
       set_val st r v
     | Isa.Operand.Mem _ | Isa.Operand.Imm _ -> ())
  | Inc d | Dec d ->
    write_op st Isa.Insn.W d (t_union (op_texpr st Isa.Insn.W d) imm_texpr);
    (match d with
     | Isa.Operand.Reg r ->
       let delta = match insn with Inc _ -> 1 | _ -> -1 in
       set_val st r
         (Option.map (fun v -> av_offset v delta) st.vals.(Isa.Reg.index r))
     | Isa.Operand.Mem _ | Isa.Operand.Imm _ -> ())
  | Cmp (sz, a, b) -> guard st sz a b
  | Test (a, b) -> guard st Isa.Insn.W a b
  | Push a ->
    let t = op_texpr st Isa.Insn.W a in
    let sp = reg_val st esp in
    mem_write st (av_offset sp (-4)) 4 t;
    set_val st esp (Some (av_offset sp (-4)))
  | Pop dst ->
    (* the machine bumps ESP before evaluating a memory destination, so
       an ESP-relative destination would disagree with the shadow rule's
       pre-instruction address — leave such blocks to the interpreter *)
    (match dst with
     | Isa.Operand.Mem m
       when m.base = Some Isa.Reg.ESP || m.index = Some Isa.Reg.ESP ->
       raise Unsummarizable
     | _ -> ());
    let sp = reg_val st esp in
    let t = mem_read st sp 4 in
    write_op st Isa.Insn.W dst t;
    (match dst with
     | Isa.Operand.Reg r when r <> esp -> set_val st r None
     | _ -> ());
    set_val st esp (Some (av_offset sp 4));
    (match dst with
     | Isa.Operand.Reg r when r = esp -> set_val st r None
     | _ -> ())
  | Cpuid ->
    (* the identity words are constants, so address arithmetic through
       them stays affine *)
    List.iter
      (fun (r, v) ->
        reg_write st r hw_texpr;
        set_val st r (Some (const v)))
      Isa.Insn.cpuid_words
  | Nop -> ()
  | Div _ | Jmp _ | Jcc _ | Call _ | Ret | Int _ | Hlt ->
    (* never body-safe *)
    raise Unsummarizable

let compile_addr (av, len) =
  let regs =
    List.filter (fun r -> av.coefs.(Isa.Reg.index r) <> 0) Isa.Reg.all
  in
  { a_regs = Array.of_list regs;
    a_coefs =
      Array.of_list (List.map (fun r -> av.coefs.(Isa.Reg.index r)) regs);
    a_disp = av.disp;
    a_len = len }

let compile_tex x =
  let regs =
    List.filter (fun r -> x.x_regs land (1 lsl Isa.Reg.index r) <> 0)
      Isa.Reg.all
  in
  { c_regs = Array.of_list regs;
    c_mems = Array.of_list x.x_mems;
    c_imm = x.x_imm;
    c_hw = x.x_hw;
    c_in =
      Array.make
        (max 1 (List.length regs + List.length x.x_mems))
        Taint.Tagset.empty;
    c_out = Taint.Tagset.empty;
    c_valid = false }

let compile ~space ~imm_tag insns ~pos ~len =
  let st =
    { vals =
        Array.init Isa.Reg.count (fun i ->
            let v = const 0 in
            v.coefs.(i) <- 1;
            Some v);
      tex =
        Array.init Isa.Reg.count (fun i -> { bottom with x_regs = 1 lsl i });
      stores = [];
      ranges = { items = []; n = 0 };
      texprs = { items = []; n = 0 };
      writes = [];
      guards = [] }
  in
  match
    for i = pos to pos + len - 1 do
      transfer st insns.(i)
    done
  with
  | exception Unsummarizable -> None
  | () ->
    let guards = List.map (index st.texprs) (List.rev st.guards) in
    Some
      { s_space = space;
        s_imm = imm_tag;
        s_hw = Taint.Tagset.singleton space Taint.Source.Hardware;
        s_addrs = to_array compile_addr st.ranges;
        s_texprs = to_array compile_tex st.texprs;
        s_writes = Array.of_list (List.rev st.writes);
        s_guards = Array.of_list guards;
        s_vals = Array.make st.ranges.n 0;
        s_tags = Array.make (max 1 st.texprs.n) Taint.Tagset.empty }

let mem_size = Vm.Machine.mem_size

(* The helpers below are top-level tail recursions over accumulators:
   a local recursive function would be a closure over its free
   variables, allocated on every call. *)

let rec eval_addr m (a : addr) k v =
  if k >= Array.length a.a_regs then v
  else
    eval_addr m a (k + 1)
      (v
       + Array.unsafe_get a.a_coefs k
         * Vm.Machine.get_reg m (Array.unsafe_get a.a_regs k))

(* Evaluate every touched address into [s_vals]; [false] on the first
   bounds miss.  Unmasked evaluation is conservative: a
   wrapped-but-in-bounds address deopts rather than risking a mismatch
   with the CPU. *)
let rec eval_addrs s m i =
  i >= Array.length s.s_addrs
  || begin
    let a = Array.unsafe_get s.s_addrs i in
    let v = eval_addr m a 0 a.a_disp in
    v >= 0
    && v + a.a_len <= mem_size
    && begin
      Array.unsafe_set s.s_vals i v;
      eval_addrs s m (i + 1)
    end
  end

(* Gather a texpr's entry inputs into its memo slots; the result is
   "every input was pointer-equal to the previous application's". *)
let rec gather_regs shadow x k same =
  if k >= Array.length x.c_regs then same
  else begin
    let t = Shadow.reg shadow (Array.unsafe_get x.c_regs k) in
    if t != Array.unsafe_get x.c_in k then begin
      Array.unsafe_set x.c_in k t;
      gather_regs shadow x (k + 1) false
    end
    else gather_regs shadow x (k + 1) same
  end

let rec gather_mems s shadow x nr k same =
  if k >= Array.length x.c_mems then same
  else begin
    let ai = Array.unsafe_get x.c_mems k in
    let t =
      Shadow.range shadow
        (Array.unsafe_get s.s_vals ai)
        (Array.unsafe_get s.s_addrs ai).a_len
    in
    if t != Array.unsafe_get x.c_in (nr + k) then begin
      Array.unsafe_set x.c_in (nr + k) t;
      gather_mems s shadow x nr (k + 1) false
    end
    else gather_mems s shadow x nr (k + 1) same
  end

let rec union_inputs sp x k n acc =
  if k >= n then acc
  else
    union_inputs sp x (k + 1) n
      (Taint.Tagset.union sp acc (Array.unsafe_get x.c_in k))

(* 2. evaluate every taint expression against the entry shadow — all
   expressions are entry-relative, so reads must complete before any
   write lands.  When every input matches the previous application's
   (tag sets are interned, so one pointer compare each), the cached
   union is replayed without touching the union memo. *)
let rec eval_texprs s shadow i =
  if i < Array.length s.s_texprs then begin
    let x = Array.unsafe_get s.s_texprs i in
    let nr = Array.length x.c_regs in
    let same = gather_regs shadow x 0 x.c_valid in
    let same = gather_mems s shadow x nr 0 same in
    if not same then begin
      let seed =
        if x.c_imm then
          if x.c_hw then Taint.Tagset.union s.s_space s.s_imm s.s_hw
          else s.s_imm
        else if x.c_hw then s.s_hw
        else Taint.Tagset.empty
      in
      x.c_out <-
        union_inputs s.s_space x 0 (nr + Array.length x.c_mems) seed;
      x.c_valid <- true
    end;
    Array.unsafe_set s.s_tags i x.c_out;
    eval_texprs s shadow (i + 1)
  end

(* 4. the last compare/test evaluating non-empty is the guard; empty
   when there is none *)
let rec last_guard s i acc =
  if i >= Array.length s.s_guards then acc
  else
    let t = Array.unsafe_get s.s_tags (Array.unsafe_get s.s_guards i) in
    last_guard s (i + 1) (if Taint.Tagset.is_empty t then acc else t)

let applied_clean = Applied None

let apply s shadow m =
  (* 1. evaluate and bounds-check every touched address; a single miss
     deopts the whole block (the interpreter re-runs it and faults at
     the precise instruction) *)
  if not (eval_addrs s m 0) then Deopt
  else begin
    eval_texprs s shadow 0;
    (* 3. apply writes in program order *)
    let n_writes = Array.length s.s_writes in
    for i = 0 to n_writes - 1 do
      match Array.unsafe_get s.s_writes i with
      | W_reg (r, x) -> Shadow.set_reg shadow r (Array.unsafe_get s.s_tags x)
      | W_mem (ai, x) ->
        Shadow.set_range shadow
          (Array.unsafe_get s.s_vals ai)
          (Array.unsafe_get s.s_addrs ai).a_len
          (Array.unsafe_get s.s_tags x)
    done;
    let g = last_guard s 0 Taint.Tagset.empty in
    if Taint.Tagset.is_empty g then applied_clean else Applied (Some g)
  end
