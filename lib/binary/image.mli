(** Binary images: the unit of loading.

    An image is either an executable or a shared object.  It carries a text
    segment (instructions), data sections, an export table, import
    relocations, and the list of shared objects it needs.  Images are
    assembled at a fixed base address (the simulated world does not
    relocate), which keeps internal references absolute. *)

type kind = Executable | Shared_object

type t = {
  path : string;  (** filesystem path, e.g. ["/bin/ls"], ["/lib/libc.so"] *)
  kind : kind;
  base : int;  (** load address of text[0] *)
  text : Isa.Insn.t array;
  sections : Section.t list;  (** data sections at absolute addresses *)
  exports : Symbol.export list;
  relocs : Symbol.reloc list;
  needed : string list;  (** paths of shared objects this image requires *)
  entry : int;  (** absolute address of the entry point *)
}

val make :
  path:string ->
  kind:kind ->
  base:int ->
  text:Isa.Insn.t array ->
  sections:Section.t list ->
  exports:Symbol.export list ->
  relocs:Symbol.reloc list ->
  needed:string list ->
  entry:int ->
  t

(** [link img ~resolve] patches every import relocation using [resolve]
    (symbol name to absolute address), returning the linked image: a
    copy with patched text and no relocations, or [img] itself when it
    has none.  Relocations must target a [Call], [Jmp], [Mov] or [Push]
    immediate.  [Error] names the image and the symbol that did not
    resolve or the unsupported target instruction. *)
val link : t -> resolve:(string -> int option) -> (t, string) result

(** [exported_routine img addr] is the exported symbol whose address is
    exactly [addr], used by the monitor to detect routine entry. *)
val exported_routine : t -> int -> string option

val pp : Format.formatter -> t -> unit
