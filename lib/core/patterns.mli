(** Execution-pattern characterization (Table 1 / Section 2.2).

    The paper distills four common execution patterns of Trojan Horses
    and Backdoors.  This module derives them from a monitored run's
    event stream, so Table 1 can be {e regenerated} by running the
    simulated exploit corpus instead of being transcribed. *)

type t = {
  no_user_intervention : bool;
      (** the run never consumed user-originated data *)
  remotely_directed : bool;
      (** inbound connections were accepted, or resource names arrived
          over sockets *)
  hardcoded_resources : bool;
      (** resource names or payloads originated in untrusted binaries *)
  degrading_performance : bool;  (** resource-abuse warnings fired *)
}

(** [derive ?trust result] inspects the events (and warnings) of a
    session. *)
val derive : ?trust:Secpert.Trust.t -> Engine.result -> t

(** [row t] renders the four columns as check marks / blanks. *)
val row : t -> string list

val pp : Format.formatter -> t -> unit
