(** Trace comparison: where two traces first diverge.

    The one comparator behind [hth_trace diff] and the golden-trace
    harness in [test/]: are two traces byte-identical, and if not,
    which line (and trace step) diverges first? *)

type t = {
  line : int;  (** 1-based line number of the first difference *)
  step : int option;
      (** step index of the first divergent line, when parseable *)
  expected : string option;  (** [None]: the expected side has no line here *)
  actual : string option;  (** [None]: the actual side has no line here *)
}

(** [first_divergence ~expected ~actual] is [None] iff the two strings
    are byte-identical; otherwise the first line-level difference.  A
    byte difference with no differing line (e.g. a missing trailing
    newline) reports the first line past the end. *)
val first_divergence : expected:string -> actual:string -> t option

(** [diff_files ~expected ~actual] reads both files and compares them;
    [Error] names a file that cannot be read. *)
val diff_files :
  expected:string -> actual:string -> (t option, string) result

val pp : a_name:string -> b_name:string -> Format.formatter -> t -> unit

(** [report ~name d] is [d] rendered by {!pp} after [name], with the
    sides labelled golden and live. *)
val report : name:string -> t -> string

(** [compare_file ~golden ~actual] reads the golden file and compares;
    [Error] carries the {!report}, or says the golden is unreadable. *)
val compare_file : golden:string -> actual:string -> (unit, string) result
