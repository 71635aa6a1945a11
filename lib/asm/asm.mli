(** A two-pass assembler, embedded as an OCaml DSL.

    Guest programs (the micro-benchmarks, the simulated trusted programs
    and exploits, and the guest libc) are written against this module and
    assembled into {!Image.t} values.  Labels may be referenced before
    they are defined; calls to names that are neither labels in the
    current unit nor locally defined become import relocations resolved by
    the loader against shared-object export tables.

    Example — a program that execs a hard-coded path:
    {[
      let image =
        let u = Asm.create ~path:"/bin/mal" ~kind:Executable ~base:0x1000 () in
        Asm.asciz u "prog" "/bin/sh";
        Asm.label u "_start";
        Asm.movl u eax (imm 11);          (* SYS_execve *)
        Asm.movl u ebx (lbl "prog");
        Asm.int80 u;
        Asm.hlt u;
        Asm.finalize u
    ]} *)

(** Operand syntax of the DSL: plain ISA operands plus label references. *)
type arg =
  | Imm of int
  | Reg of Isa.Reg.t
  | Mem of Isa.Operand.mem_ref
  | Lbl of string  (** immediate whose value is the label's address *)
  | Mlbl of string * int  (** memory operand at label + offset *)
  | MlblBase of Isa.Reg.t * string * int
      (** memory operand at label + offset + register base *)

(** Register shorthands. *)

val eax : arg
val ebx : arg
val ecx : arg
val edx : arg
val esi : arg
val edi : arg
val esp : arg

val imm : int -> arg

(** [lbl name] is the address of [name] as an immediate. *)
val lbl : string -> arg

(** [mlbl ?off name] is the memory cell at [name + off]. *)
val mlbl : ?off:int -> string -> arg

(** [mlbl_base r ?off name] is the memory cell at [name + off + %r] —
    label-relative addressing with a register base, used for record
    walks in the guest libc. *)
val mlbl_base : Isa.Reg.t -> ?off:int -> string -> arg

(** [ind r] is [(%r)]; [ind_off r n] is [n(%r)]. *)
val ind : Isa.Reg.t -> arg

val ind_off : Isa.Reg.t -> int -> arg

(** [idx base index scale disp] is [disp(base,index,scale)]. *)
val idx : Isa.Reg.t -> Isa.Reg.t -> int -> int -> arg

type t

(** [create ~path ~kind ~base ()] starts a unit assembled at fixed [base].
    [needed] lists shared objects the loader must map first. *)
val create :
  ?needed:string list -> path:string -> kind:Binary.Image.kind -> base:int ->
  unit -> t

(** {2 Labels and symbols} *)

(** [label u name] binds [name] to the current text address. *)
val label : t -> string -> unit

(** [export u name] marks label [name] as exported (a routine other images
    may import and the monitor may instrument). *)
val export : t -> string -> unit

(** {2 Text emission} *)

val movl : t -> arg -> arg -> unit
val movb : t -> arg -> arg -> unit
val lea : t -> arg -> arg -> unit
val addl : t -> arg -> arg -> unit
val subl : t -> arg -> arg -> unit
val andl : t -> arg -> arg -> unit
val orl : t -> arg -> arg -> unit
val xorl : t -> arg -> arg -> unit
val imull : t -> arg -> arg -> unit
val idivl : t -> arg -> arg -> unit
val shll : t -> arg -> arg -> unit
val shrl : t -> arg -> arg -> unit
val incl : t -> arg -> unit
val decl : t -> arg -> unit
val cmpl : t -> arg -> arg -> unit
val cmpb : t -> arg -> arg -> unit
val testl : t -> arg -> arg -> unit
val pushl : t -> arg -> unit
val popl : t -> arg -> unit
val jmp : t -> string -> unit
val jmpi : t -> arg -> unit
val jz : t -> string -> unit
val jnz : t -> string -> unit
val jl : t -> string -> unit
val jle : t -> string -> unit
val jg : t -> string -> unit
val jge : t -> string -> unit
val js : t -> string -> unit
val jns : t -> string -> unit

(** [call u name] calls label [name]; if [name] is not defined in this
    unit it becomes an import relocation. *)
val call : t -> string -> unit

val calli : t -> arg -> unit
val ret : t -> unit
val int80 : t -> unit
val cpuid : t -> unit
val nop : t -> unit
val hlt : t -> unit

(** {2 Data emission} *)

(** [asciz u name s] places the NUL-terminated string [s] in [.rodata]
    under label [name]. *)
val asciz : t -> string -> string -> unit

(** [bytes_ u name b] places raw bytes in [.rodata]. *)
val bytes_ : t -> string -> string -> unit

(** [word u name v] places a 32-bit little-endian word in [.data]. *)
val word : t -> string -> int -> unit

(** [space u name n] reserves [n] zeroed bytes in [.data]. *)
val space : t -> string -> int -> unit

(** {2 Finalisation} *)

(** [finalize u] runs the second pass and produces the image.  The entry
    point is the [_start] label if defined, else the image base.
    @raise Failure on undefined label references other than imports. *)
val finalize : t -> Binary.Image.t

(** [listing img] renders an address-annotated disassembly of the image's
    text, used by the Fig. 5 style demonstrations. *)
val listing : Binary.Image.t -> string
