(** The complete Secpert policy in textual CLIPS syntax.

    The paper implemented Secpert directly in CLIPS; this module carries
    the same policy as rule text for the {!Expert.Clips} loader, as an
    alternative to the native OCaml rules.  Transfers are matched
    through the flattened encoding ({!Facts.assert_event_full}): one
    [transfer_source] fact per data source, whose [xfer] slot holds its
    [data_transfer] fact's id, which a rule binds as a fact address
    ([?x <- (data_transfer ...)] then [(transfer_source (xfer ?x) ...)])
    — the engine's multi-pattern joins, exercised the way CLIPS
    policies do.

    Host functions the policy calls (installed by {!install_forms}):
    - [(warn rule severity pid time rare part...)] — emit a warning;
    - [(rarely freq time)] — the Low→Medium reinforcement test;
    - [(trusted-source type name)] — the trust database;
    - [(looks-executable head)] — content analysis.

    Severities agree with the native policy on every corpus scenario
    (verified by the equivalence tests); warning {e texts} are terser. *)

(** [compile ()] parses and compiles the policy text once — rule values are
    built eagerly and shared across engines ({!Expert.Clips.compile_forms}).
    @raise Expert.Clips.Error on syntax or defrule problems. *)
val compile : unit -> Expert.Clips.installer list

(** [install_forms engine ctx forms] registers the host functions, sets
    the threshold globals from {!Context.thresholds} (the constants the
    native rules read) and installs [forms], the policy as {!compile}
    compiled it. *)
val install_forms :
  Expert.Engine.t -> Context.t -> Expert.Clips.installer list -> unit
