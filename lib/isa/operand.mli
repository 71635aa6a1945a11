(** Operands and addressing modes. *)

(** A memory reference [disp + base + index * scale]. *)
type mem_ref = {
  base : Reg.t option;
  index : Reg.t option;
  scale : int;  (** multiplier for [index]; 1, 2 or 4 *)
  disp : int;  (** constant displacement *)
}

type t =
  | Imm of int  (** immediate constant (hard-coded in the binary) *)
  | Reg of Reg.t
  | Mem of mem_ref

(** [mem ?base ?index ?scale disp] builds a memory reference. *)
val mem : ?base:Reg.t -> ?index:Reg.t -> ?scale:int -> int -> t

(** [abs addr] is an absolute memory operand. *)
val abs : int -> t

val pp_mem_ref : Format.formatter -> mem_ref -> unit

val pp : Format.formatter -> t -> unit
