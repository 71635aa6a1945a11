(** Per-block taint transfer summaries.

    A summary is one straight-line block's Section 7.3.1 taint transfer,
    expressed over block-entry state and compiled to flat arrays: one
    fused application updates the shadow state for the whole block —
    bounds-check every touched address, evaluate every entry-relative
    taint expression, apply the writes in program order — exactly as
    per-instruction {!Dataflow.step} calls would have.  Summaries are
    built once per promoted block and applied on every subsequent hot
    execution. *)

type t

type outcome =
  | Applied of Taint.Tagset.t option
      (** shadow updated; the payload is the new trigger-guard tag when
          some compare/test in the block evaluated non-empty *)
  | Deopt
      (** an address failed its bounds precondition: the caller must
          interpret this execution so the fault (or wrapped access)
          surfaces at exactly the right instruction *)

(** [compile ~space ~imm_tag insns ~pos ~len] summarizes the body
    [insns.(pos) .. insns.(pos+len-1)], which must be body-safe
    ([len <= (Isa.Insn.body_lens insns).(pos)]), or is [None] when its
    flow cannot be captured exactly: an address that is not affine in
    the entry registers, a read that may alias an earlier in-block
    write, or a [pop] to an ESP-relative destination.  Such a block
    stays interpreted — precision is never traded for speed.
    [imm_tag] is the BINARY provenance tag of the image the block lives
    in; [space] the arena all tag unions run in. *)
val compile :
  space:Taint.Tagset.space -> imm_tag:Taint.Tagset.t -> Isa.Insn.t array ->
  pos:int -> len:int -> t option

(** [apply s shadow m] applies the summary against [shadow] using [m]'s
    current (block-entry) register values for address evaluation.  Not
    re-entrant: summaries carry scratch state and are applied from one
    run at a time. *)
val apply : t -> Shadow.t -> Vm.Machine.t -> outcome
