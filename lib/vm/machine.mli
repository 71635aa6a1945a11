(** The virtual CPU: a process's architectural state plus instrumentation
    hooks.

    The machine plays the role PIN plays in the paper: it executes the
    guest instruction stream and exposes callbacks at instruction and
    basic-block granularity (Fig. 5 shows the analysis calls Pin inserts;
    here they are the [pre_insn] and [on_bb] hooks).  System calls are not
    executed by the machine — [run] returns [Syscall] and the simulated
    kernel takes over, exactly as [int $0x80] traps to the OS.

    Semantics notes (documented deviations from real x86, irrelevant to
    the policy):
    - every instruction occupies one address unit;
    - [movb] to a register zero-extends into the full register;
    - memory-to-memory [mov] is permitted;
    - [Div] traps on a zero divisor (fault, not SIGFPE). *)

type fault =
  | Bad_fetch of int  (** execution left all text segments *)
  | Bad_access of int  (** memory access outside the address space *)
  | Div_by_zero

type status = Running | Halted | Faulted of fault

(** Raised by memory accessors on out-of-range addresses; [run] and [step] catch
    it internally, but kernel-side accesses (string decoding) must handle
    it. *)
exception Fault_exn of fault

type t

(** A mapped text segment: the executable or one shared object. *)
type segment = {
  seg_base : int;
  seg_insns : Isa.Insn.t array;
  seg_image : string;  (** image path, e.g. ["/lib/libc.so"] *)
  seg_kind : Binary.Image.kind;
}

(** Instrumentation callbacks.  Each machine carries its own set, so a
    monitor binds per-process state into the closures rather than
    looking it up on every call. *)
type hooks = {
  pre_insn : t -> int -> Isa.Insn.t -> unit;
      (** called with the address and instruction {e before} execution *)
  on_bb : t -> int -> unit;
      (** called when control enters a basic block (leader address) *)
}

(** No-op hooks: what {!create} installs. *)
val no_hooks : hooks

(** Size of each process's address space (1 MiB). *)
val mem_size : int

(** Memory is demand-paged in [1 lsl page_bits]-byte (4 KiB) pages:
    every page reads as zeros until its first store, which gives the
    machine a private copy.  [Harrier.Shadow] tags memory at the same
    granularity. *)
val page_bits : int

(** [create ()] is a machine with empty memory and {!no_hooks}. *)
val create : unit -> t

(** [set_hooks m h] replaces [m]'s hooks; the next instruction runs
    under [h]. *)
val set_hooks : t -> hooks -> unit

(** [clone m] duplicates the full architectural state ([fork]): [m]'s
    private pages are copied, and text segments are shared, as are the
    hooks until {!set_hooks} rebinds the clone's. *)
val clone : t -> t

(** [resident_pages m] is the number of pages [m] holds privately:
    those it stored into, plus those it inherited from the machine it
    was cloned from. *)
val resident_pages : t -> int

val eip : t -> int

val status : t -> status

val set_eip : t -> int -> unit

val get_reg : t -> Isa.Reg.t -> int

val set_reg : t -> Isa.Reg.t -> int -> unit

(** {2 Memory} *)

val read_byte : t -> int -> int

val write_byte : t -> int -> int -> unit

val read_word : t -> int -> int

val write_word : t -> int -> int -> unit

(** [read_bytes m addr len] copies [len] bytes out of guest memory. *)
val read_bytes : t -> int -> int -> string

val write_string : t -> int -> string -> unit

(** [read_cstring m addr] reads a NUL-terminated string (bounded by the
    address-space end). *)
val read_cstring : t -> int -> string

(** {2 Text segments} *)

(** [map_image m img] maps a linked image: registers its text segment and
    copies its data sections into memory. *)
val map_image : t -> Binary.Image.t -> unit

val segment_at : t -> int -> segment option

val fetch : t -> int -> Isa.Insn.t option

(** {2 Operand access}

    Exposed so the taint-tracking monitor can compute exactly the
    locations the CPU is about to touch. *)

(** [eff_addr m ref] is the effective address of a memory reference under
    the current register values. *)
val eff_addr : t -> Isa.Operand.mem_ref -> int

(** [read_operand m size op] evaluates an operand. *)
val read_operand : t -> Isa.Insn.size -> Isa.Operand.t -> int

(** {2 Execution} *)

type outcome =
  | Continue  (** one instruction retired *)
  | Syscall of int  (** [Int n] executed; eip already advanced *)
  | Stopped of status  (** halted or faulted *)

(** [step m] executes one instruction, firing hooks and counting it in
    the [vm.*] counters as it goes: the single-step reference that
    {!run} must agree with. *)
val step : t -> outcome

(** [run m ~fuel] runs up to [fuel] instructions — a scheduler quantum —
    and stops early at a syscall or when the machine stops; it returns
    that outcome ([Continue] when the fuel ran out) and the number of
    instructions retired, a faulting one or a bad fetch included.  Every
    instruction is interpreted as {!step} interprets it, hooks included.
    The [vm.*] counters are counted locally and settled once per call,
    on every exit; their totals equal those of iterated {!step}s. *)
val run : t -> fuel:int -> outcome * int

val pp_fault : Format.formatter -> fault -> unit

val pp_status : Format.formatter -> status -> unit
