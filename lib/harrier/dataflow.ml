(* This runs on every instruction, so the operand helpers are called
   saturated — no per-step closure allocation — and unions rely on the
   interned tag-set fast paths. *)

let operand_tag shadow m imm_tag size (op : Isa.Operand.t) =
  match op with
  | Imm _ -> imm_tag
  | Reg r -> Shadow.reg shadow r
  | Mem ref ->
    Shadow.range shadow (Vm.Machine.eff_addr m ref) (Isa.Insn.size_bytes size)

let write_tag shadow m size (op : Isa.Operand.t) tag =
  match op with
  | Imm _ -> ()
  | Reg r -> Shadow.set_reg shadow r tag
  | Mem ref ->
    Shadow.set_range shadow (Vm.Machine.eff_addr m ref)
      (Isa.Insn.size_bytes size) tag

(* The guard rule: immediates count as untainted on purpose — only
   {e data} taint reaching a compare marks trigger-gated flow. *)
let guard_tag shadow m sp size a b =
  Taint.Tagset.union sp
    (operand_tag shadow m Taint.Tagset.empty size a)
    (operand_tag shadow m Taint.Tagset.empty size b)

let step shadow m ~imm_tag (insn : Isa.Insn.t) =
  let sp = Shadow.space shadow in
  match insn with
  | Mov (sz, dst, s) ->
    write_tag shadow m sz dst (operand_tag shadow m imm_tag sz s);
    Taint.Tagset.empty
  | Lea (r, ref) ->
    let reg_tag = function
      | None -> Taint.Tagset.empty
      | Some reg -> Shadow.reg shadow reg
    in
    Shadow.set_reg shadow r
      (Taint.Tagset.union sp imm_tag
         (Taint.Tagset.union sp (reg_tag ref.base) (reg_tag ref.index)));
    Taint.Tagset.empty
  | Add (d, s) | Sub (d, s) | And (d, s) | Or (d, s) | Xor (d, s)
  | Mul (d, s) | Div (d, s) | Shl (d, s) | Shr (d, s) ->
    let tag =
      Taint.Tagset.union sp
        (operand_tag shadow m imm_tag Isa.Insn.W d)
        (operand_tag shadow m imm_tag Isa.Insn.W s)
    in
    write_tag shadow m Isa.Insn.W d tag;
    Taint.Tagset.empty
  | Inc d | Dec d ->
    write_tag shadow m Isa.Insn.W d
      (Taint.Tagset.union sp (operand_tag shadow m imm_tag Isa.Insn.W d)
         imm_tag);
    Taint.Tagset.empty
  | Cmp (sz, a, b) -> guard_tag shadow m sp sz a b
  | Test (a, b) -> guard_tag shadow m sp Isa.Insn.W a b
  | Push a ->
    let sp = Vm.Machine.get_reg m ESP - 4 in
    Shadow.set_range shadow sp 4 (operand_tag shadow m imm_tag Isa.Insn.W a);
    Taint.Tagset.empty
  | Pop dst ->
    let sp = Vm.Machine.get_reg m ESP in
    write_tag shadow m Isa.Insn.W dst (Shadow.range shadow sp 4);
    Taint.Tagset.empty
  | Call _ ->
    (* the CPU pushes an untainted return address *)
    let sp = Vm.Machine.get_reg m ESP - 4 in
    Shadow.set_range shadow sp 4 Taint.Tagset.empty;
    Taint.Tagset.empty
  | Cpuid ->
    let hw = Taint.Tagset.singleton sp Taint.Source.Hardware in
    List.iter (fun (r, _) -> Shadow.set_reg shadow r hw) Isa.Insn.cpuid_words;
    Taint.Tagset.empty
  | Jmp _ | Jcc _ | Ret | Int _ | Nop | Hlt -> Taint.Tagset.empty
