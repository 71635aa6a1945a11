(** Typed session-path errors.

    Everything that can go wrong while running one session is funnelled
    into this taxonomy instead of [failwith]/[assert false], so a broken
    scenario produces a structured per-session outcome (and a distinct
    process exit code in [hth_run]) rather than aborting the whole
    batch. *)

type t =
  | Load_failure of { path : string; reason : string }
      (** the main executable (or a needed shared object) could not be
          loaded *)
  | Policy_error of string
      (** the Secpert policy failed to install or evaluate (bad
          template, malformed CLIPS text, ...) *)
  | Budget_exceeded of { what : string; limit : int }
      (** a hard supervisor budget was exhausted *)
  | Crash of { phase : string; exn : string }
      (** an unexpected exception escaped the named session phase *)
  | Timeout of { seconds : float }
      (** the session overran its wall-clock deadline and was abandoned
          by the fleet supervisor.  Unlike every other constructor this
          one is {e not} deterministic: it depends on real time, so it
          only ever appears for sessions that genuinely wedge (the
          deterministic tick budget fires first for runaway-but-
          terminating guests) *)

(** [Error_exn e] carries a typed error through exception-only call
    sites ({!Engine.run} raises it when its result-returning sibling
    would return [Error]). *)
exception Error_exn of t

(** One-line human diagnosis, ["load failure: ..."] style. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** Stable label for counters and summary tables: ["load_failure"],
    ["policy_error"], ["budget_exceeded"], ["crash"], ["timeout"]. *)
val kind : t -> string

(** Distinct process exit code per error class, for scripting:
    load failure 3, policy error 4, budget 5, crash 6, timeout 7
    (0 = clean, 1 = suspicious/batch failure, 2 = usage — cmdliner's
    convention; 124/125 stay reserved for cmdliner itself). *)
val exit_code : t -> int
