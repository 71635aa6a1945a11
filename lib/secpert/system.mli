(** The Secpert system instance (Section 6).

    Wraps the generic {!Expert.Engine} with the three policy rule
    families, the trust database and the event-to-fact encoding.
    {!handle_event} is a Harrier monitor's judge: every event is
    asserted as facts, the engine runs to quiescence, warnings are
    collected, and the facts are retracted (the prototype analyzes one
    event at a time, as in the paper's single-session policy), so
    working memory is empty between events. *)

type t

(** Which implementation of the policy drives the engine: the native
    OCaml rules, or the textual CLIPS policy of {!Policy_clips} (the
    paper's own medium).  Both produce the same severities on the whole
    corpus. *)
type policy = Native | Clips

(** A policy prepared once for installation into many engines: for
    [Clips] the parsed rule forms (the expensive part of [create]); for
    [Native] a trivial marker.  Compile once in a long-lived engine,
    then build per-session instances with {!create_from}. *)
type compiled

val compile : policy -> compiled

(** [create ()] builds a Secpert instance.
    [auto_kill] makes Secpert answer [Kill] for events that produced a
    warning at or above the given severity — standing in for the paper's
    interactive user saying "stop" (the run is unattended).
    [warning_cap] bounds the {e stored} warning transcript: the verdict
    path ([warning_count], [max_severity], auto-kill decisions) stays
    exact, but warnings past the cap are dropped from [warnings] and the
    instance reports itself {!degraded}.  The thresholds are the
    policy constants {!Context.thresholds}. *)
val create :
  ?trust:Trust.t ->
  ?auto_kill:Severity.t ->
  ?warning_cap:int ->
  ?policy:policy ->
  unit ->
  t

(** [create_from ~compiled ()] is {!create} with a pre-compiled policy
    (see {!compile}); [create ?policy] is
    [create_from ~compiled:(compile policy)]. *)
val create_from :
  ?trust:Trust.t ->
  ?auto_kill:Severity.t ->
  ?warning_cap:int ->
  compiled:compiled ->
  unit ->
  t

val trust : t -> Trust.t

val engine : t -> Expert.Engine.t

(** [handle_event t e] runs the policy on one event and decides whether
    the triggering system call may proceed.  Pass [handle_event t] as
    the [~judge] of {!Harrier.Monitor.attach}: the monitor writes the
    event's "flow" line first, so the "rule"/"warning" lines written
    here follow it. *)
val handle_event : t -> Harrier.Events.t -> Osim.Kernel.decision

(** [warnings t] is every warning so far, oldest first. *)
val warnings : t -> Warning.t list

(** [distinct_warnings t] deduplicates repeats of the same rule firing
    with identical text (fork bombs repeat thousands of times). *)
val distinct_warnings : t -> Warning.t list

val warning_count : t -> int

(** [max_severity t] is the strongest warning so far (exact even when
    the warning cap dropped stored warnings). *)
val max_severity : t -> Severity.t option

(** [degraded t] is one human-readable reason when the warning cap
    dropped stored warnings; empty otherwise. *)
val degraded : t -> string list

(** [replay ?trust ?policy events] pushes recorded events
    through a fresh instance and returns its warnings — identical to
    the live run's warnings when the configuration matches.  This is
    offline re-judging (the paper's Section 10, items 6–8): keep
    traces, judge them again as the policy evolves. *)
val replay :
  ?trust:Trust.t ->
  ?policy:policy ->
  Harrier.Events.t list ->
  Warning.t list
