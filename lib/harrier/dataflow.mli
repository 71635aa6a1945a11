(** Per-instruction taint propagation (Section 7.3.1).

    Called from the [pre_insn] hook, {e before} the CPU mutates state, so
    effective addresses are computed against the same register values the
    CPU will use.  Propagation rules follow the paper:
    - [mov] copies the source tag to the destination;
    - ALU instructions assign the destination the {e union} of both
      operand tags;
    - immediates carry the BINARY tag of the image the executing code
      belongs to;
    - [cpuid] writes the HARDWARE tag into eax..edx;
    - comparisons and control transfers propagate nothing (implicit flows
      are out of scope, as in the prototype).  A compare or test does
      yield a {e guard} tag: the union of its operands' tags, with
      immediates untainted — the data that steers the next branch.

    Tags travel as the ids of the shadow's taint space
    ({!Taint.Tagset.id}; 0 is the empty set): the shadow stores ids and
    the unions run on them ({!Taint.Tagset.union_id}), so the step
    converts nothing. *)

(** [step shadow machine ~imm insn] updates [shadow] for the effects of
    [insn] and returns the id of its guard tag: the operand taint of a
    [cmp] or [test], and 0 (the empty set) for every other instruction.
    [imm] is the id of the BINARY tag of the executing image. *)
val step : Shadow.t -> Vm.Machine.t -> imm:int -> Isa.Insn.t -> int
