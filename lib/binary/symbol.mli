(** Symbol tables: exports and import relocations.

    Shared objects export routines by name (the loader uses exports both to
    link imports and to let Harrier instrument routine entry/exit — Table 3
    "Library (API) events / Routine").  Executables and libraries may
    import symbols; each import is recorded as a relocation against a text
    index whose immediate operand is patched at link time. *)

type export = {
  sym_name : string;
  sym_addr : int;  (** absolute address of the routine's first instruction *)
}

type reloc = {
  text_index : int;  (** index into the image's text array *)
  target : string;  (** imported symbol name *)
}

val export : string -> int -> export

val reloc : int -> string -> reloc

(** [find_export exports name] is the address exported under [name]. *)
val find_export : export list -> string -> int option
