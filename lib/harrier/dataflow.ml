(* This runs on every instruction, so it works on the tag ids the
   shadow stores, end to end: operands are read as ids, unioned through
   the space's id-level memo ([Taint.Tagset.union_id]) and written back
   as ids, and no tag-set node is touched on a memo hit.  The operand
   helpers are called saturated — no per-step closure allocation. *)

let[@inline] operand_id shadow m imm size (op : Isa.Operand.t) =
  match op with
  | Imm _ -> imm
  | Reg r -> Shadow.reg_id shadow r
  | Mem ref ->
    Shadow.range_id shadow (Vm.Machine.eff_addr m ref)
      (Isa.Insn.size_bytes size)

let[@inline] write_id shadow m size (op : Isa.Operand.t) id =
  match op with
  | Imm _ -> ()
  | Reg r -> Shadow.set_reg_id shadow r id
  | Mem ref ->
    Shadow.set_range_id shadow (Vm.Machine.eff_addr m ref)
      (Isa.Insn.size_bytes size) id

let[@inline] reg_or_empty shadow = function
  | None -> 0
  | Some reg -> Shadow.reg_id shadow reg

(* The guard rule: immediates count as untainted on purpose — only
   {e data} taint reaching a compare marks trigger-gated flow. *)
let[@inline] guard_id shadow m sp size a b =
  Taint.Tagset.union_id sp
    (operand_id shadow m 0 size a)
    (operand_id shadow m 0 size b)

let step shadow m ~imm (insn : Isa.Insn.t) =
  let sp = Shadow.space shadow in
  match insn with
  | Mov (sz, dst, s) ->
    write_id shadow m sz dst (operand_id shadow m imm sz s);
    0
  | Lea (r, ref) ->
    Shadow.set_reg_id shadow r
      (Taint.Tagset.union_id sp imm
         (Taint.Tagset.union_id sp
            (reg_or_empty shadow ref.base)
            (reg_or_empty shadow ref.index)));
    0
  | Add (d, s) | Sub (d, s) | And (d, s) | Or (d, s) | Xor (d, s)
  | Mul (d, s) | Div (d, s) | Shl (d, s) | Shr (d, s) ->
    let id =
      Taint.Tagset.union_id sp
        (operand_id shadow m imm Isa.Insn.W d)
        (operand_id shadow m imm Isa.Insn.W s)
    in
    write_id shadow m Isa.Insn.W d id;
    0
  | Inc d | Dec d ->
    write_id shadow m Isa.Insn.W d
      (Taint.Tagset.union_id sp (operand_id shadow m imm Isa.Insn.W d) imm);
    0
  | Cmp (sz, a, b) -> guard_id shadow m sp sz a b
  | Test (a, b) -> guard_id shadow m sp Isa.Insn.W a b
  | Push a ->
    let sp = Vm.Machine.get_reg m ESP - 4 in
    Shadow.set_range_id shadow sp 4 (operand_id shadow m imm Isa.Insn.W a);
    0
  | Pop dst ->
    let sp = Vm.Machine.get_reg m ESP in
    write_id shadow m Isa.Insn.W dst (Shadow.range_id shadow sp 4);
    0
  | Call _ ->
    (* the CPU pushes an untainted return address *)
    let sp = Vm.Machine.get_reg m ESP - 4 in
    Shadow.set_range_id shadow sp 4 0;
    0
  | Cpuid ->
    let hw = Taint.Tagset.(id (singleton sp Taint.Source.Hardware)) in
    List.iter
      (fun (r, _) -> Shadow.set_reg_id shadow r hw)
      Isa.Insn.cpuid_words;
    0
  | Jmp _ | Jcc _ | Ret | Int _ | Nop | Hlt -> 0
