(** The instruction set.

    A deliberately small 32-bit ISA sufficient for the guest corpus: data
    movement, ALU, stack, control transfer, the [int 0x80] system-call
    gate and [cpuid] (the paper's example of a HARDWARE data source).
    Instructions occupy one address unit each, so basic-block boundaries
    and event code addresses are instruction-granular. *)

type size =
  | B  (** byte *)
  | W  (** 32-bit word *)

type cond = Z | NZ | L | LE | G | GE | S | NS

type t =
  | Mov of size * Operand.t * Operand.t  (** [Mov (sz, dst, src)] *)
  | Lea of Reg.t * Operand.mem_ref  (** load effective address *)
  | Add of Operand.t * Operand.t
  | Sub of Operand.t * Operand.t
  | And of Operand.t * Operand.t
  | Or of Operand.t * Operand.t
  | Xor of Operand.t * Operand.t
  | Mul of Operand.t * Operand.t  (** [dst <- dst * src] *)
  | Div of Operand.t * Operand.t  (** [dst <- dst / src]; div-by-0 faults *)
  | Shl of Operand.t * Operand.t
  | Shr of Operand.t * Operand.t
  | Inc of Operand.t
  | Dec of Operand.t
  | Cmp of size * Operand.t * Operand.t  (** sets flags from [a - b] *)
  | Test of Operand.t * Operand.t  (** sets flags from [a land b] *)
  | Push of Operand.t
  | Pop of Operand.t
  | Jmp of Operand.t  (** absolute target: immediate, register or memory *)
  | Jcc of cond * Operand.t  (** conditional absolute jump *)
  | Call of Operand.t  (** pushes return address *)
  | Ret
  | Int of int  (** software interrupt; [Int 0x80] is the syscall gate *)
  | Cpuid  (** writes processor identity into eax..edx, HARDWARE-tagged *)
  | Nop
  | Hlt  (** halts the process (used as a guard after main) *)

(** [writes_control_flow i] is true for jumps, calls, returns, [Int] and
    [Hlt] — the instructions that terminate a basic block. *)
val writes_control_flow : t -> bool

(** [body_lens text].(i) is the length of the straight-line {e body}
    starting at instruction [i]: the run of instructions that execute
    without control transfer, kernel trap or interpreter special-casing
    ([div]), capped at 48 (0 when [text.(i)] itself ends a block).  The
    tiered VM runs such a body as one unit; its terminator always
    interprets. *)
val body_lens : t array -> int array

(** Bytes an operand of this size occupies in memory: 1 or 4. *)
val size_bytes : size -> int

(** [cpuid]'s fixed processor identity: the registers it writes, each
    with its word. *)
val cpuid_words : (Reg.t * int) list

val pp : Format.formatter -> t -> unit

val to_string : t -> string
