(** Decoded basic blocks for the tiered VM.

    A {e body} is a maximal straight-line run of instructions that can
    execute without control transfer, kernel trap, or interpreter
    special-casing; the terminating instruction (jump, call, [int],
    [div], …) always stays with the interpreter.  {!body_lens} is pure
    syntax analysis, computed once per image and shared by every
    machine mapping it.

    {!analyze} lifts the per-instruction Section 7.3.1 taint rules to a
    per-block transfer summary ({!flow}) expressed over block-entry
    state, so a dataflow monitor can apply one fused update per hot
    block instead of per-instruction shadow operations.  Blocks whose
    flow the affine analysis cannot capture exactly return [None] and
    remain interpreted — precision is never traded for speed. *)

(** [body_lens text].(i) is the straight-line body length starting at
    instruction [i] (0 when [text.(i)] itself is a terminator), capped
    at {!max_body}. *)
val body_lens : Insn.t array -> int array

(** Affine expression [disp + Σ coef·entry_reg] over block-entry
    register values; coefficients sorted by register index, zeroes
    dropped. *)
type avalue = {
  av_coefs : (Reg.t * int) list;
  av_disp : int;
}

(** Taint over block-entry state: union of entry registers' tags, entry
    memory ranges' tags, the image's constant provenance ([x_imm]) and
    the hardware-identity singleton ([x_hw]). *)
type texpr = {
  x_regs : Reg.t list;
  x_mems : (avalue * int) list;
  x_imm : bool;
  x_hw : bool;
}

type write =
  | W_reg of Reg.t * texpr
  | W_mem of avalue * int * texpr

(** Block taint transfer summary. *)
type flow = {
  f_addrs : (avalue * int) list;
      (** every memory range the body touches — the bounds
          precondition a runtime application must re-check *)
  f_writes : write list;  (** program order; later writes win *)
  f_guards : texpr list;
      (** compare/test operand flow in program order; the last one
          evaluating non-empty becomes the block's guard tag *)
}

(** [analyze text ~pos ~len] summarizes the body
    [text.(pos) .. text.(pos+len-1)] (which must satisfy
    [len <= (body_lens text).(pos)]), or [None] when its flow cannot
    be captured exactly. *)
val analyze : Insn.t array -> pos:int -> len:int -> flow option
