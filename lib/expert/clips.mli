(** A loader for a CLIPS-like textual policy language.

    Supports the subset exercised by the paper's Appendix A:
    - [(deftemplate name (slot s) ...)] with optional [(default v)];
    - [(defglobal ?*name* = value)];
    - [(defrule name "doc" lhs... => action...)] where the LHS mixes
      patterns, fact bindings [?f <- (pattern)] and [(test expr)]
      conditional elements, and actions include [assert], [retract],
      [printout], [bind] and [if/then/else];
    - [(deffunction name (?a ?b) expr...)] — in-language helper
      functions, callable from tests and actions;
    - toplevel [(assert (template (slot v)...))].

    Expressions call built-in functions ([eq], [neq], [<], [>], [and],
    [or], [not], [+], [-], [*], [str-cat], [empty-list], [length]) or host
    functions registered with {!Engine.defun} — the paper's policy relies
    on host functions [filter_binary] and [filter_socket]. *)

exception Error of string

(** [load engine text] parses and installs every form in [text] (calls
    {!install_builtins} first).
    @raise Error on syntax or semantic problems. *)
val load : Engine.t -> string -> unit

(** [parse text] is the parsed toplevel form list of [text], without
    installing anything.  Parse once, then {!compile_forms} the result
    and {!install_compiled} it into any number of engines (compile-once
    policy sharing).
    @raise Error on syntax problems. *)
val parse : string -> Sexp.t list

(** One compiled toplevel form, ready to install into an engine. *)
type installer = Engine.t -> unit

(** [compile_forms forms] does the engine-independent compilation work
    once: defrule LHS walking, pattern construction and action-closure
    building.  The resulting installers can be applied to any number of
    engines ({!install_compiled}); rules are shared as finished values,
    engine-stateful forms (templates, functions, globals, asserts) are
    loaded per engine.
    @raise Error on semantic problems in a defrule. *)
val compile_forms : Sexp.t list -> installer list

(** [install_compiled engine installers] registers the builtins, then
    applies each installer in order — the compile-once counterpart of
    {!load}.
    @raise Error on semantic problems. *)
val install_compiled : Engine.t -> installer list -> unit

(** [eval engine expr_text] parses one expression and evaluates it with no
    variable bindings (globals are visible); useful in tests. *)
val eval : Engine.t -> string -> Value.t

(** [install_builtins engine] registers the built-in function set; [load]
    calls it automatically. *)
val install_builtins : Engine.t -> unit
