(** Experiment scenarios: a session setup plus the expected verdict.

    Each table of the paper's evaluation (Section 8) is a list of
    scenarios; the bench harness runs them and compares HTH's verdict
    with the expectation. *)

type expected =
  | Benign  (** no warning should fire *)
  | Malicious of Secpert.Severity.t  (** expected {e maximum} severity *)

type t = {
  sc_name : string;  (** e.g. ["Hardcode"] (Table 4 row) *)
  sc_group : string;  (** e.g. ["table4"] *)
  sc_descr : string;
  sc_setup : Hth.Engine.setup;
  sc_expected : expected;
}

val make :
  name:string -> group:string -> descr:string -> expected:expected ->
  Hth.Engine.setup -> t

val expected_label : expected -> string

(** [matches expected verdict] — exact severity agreement (the tables
    grade classification, not mere detection). *)
val matches : expected -> Hth.Report.verdict -> bool

(** [run sc] executes the scenario under the default configuration. *)
val run : ?monitor_config:Harrier.Monitor.config -> t -> Hth.Engine.result

(** [passes sc] runs and checks the verdict. *)
val passes : t -> bool
