(** The session engine: compile-once shared artifacts, reused across
    many sessions.

    An engine freezes everything about running HTH sessions that does
    not depend on one particular run — monitor configuration, trust
    database, auto-kill level and the policy itself (compiled once; for
    the textual CLIPS policy that is one parse for the engine's whole
    lifetime).  None of it changes after {!create}, so one engine may
    run sessions on any number of domains at once.  {!run} builds the
    genuinely per-session state: Secpert instance, file system,
    network, kernel (whose loader links the session's images), monitor
    (whose judge is that Secpert instance) and a fresh taint space.

    Determinism contract: a session run through a warm shared engine
    produces byte-identical traces, warnings and verdicts to the same
    session run cold, on a fresh engine.  The compiled policy is all
    that one session leaves behind for the next, and it is never
    written after {!create}. *)

type setup = {
  programs : Binary.Image.t list;
      (** images installed into the fs, in order: a later image at the
          same path replaces an earlier one *)
  files : (string * string) list;  (** plain files: (path, contents) *)
  hosts : (string * int) list;  (** DNS entries: (name, ip) *)
  servers : (string * int * Osim.Net.actor) list;
      (** remote servers the guest may connect to: (host, port, actor) *)
  incoming : (int * Osim.Net.actor) list;
      (** scripted remote clients for guest listeners: (port, actor) *)
  user_input : string list;  (** successive stdin chunks *)
  main : string;  (** path of the executable to spawn *)
  argv : string list;
  env : string list;  (** environment strings ("NAME=value") *)
  max_ticks : int;
}

(** [setup ~main ()] with sensible defaults: [argv = [main]],
    [max_ticks = 2_000_000], the loopback host predeclared. *)
val setup :
  ?programs:Binary.Image.t list ->
  ?files:(string * string) list ->
  ?hosts:(string * int) list ->
  ?servers:(string * int * Osim.Net.actor) list ->
  ?incoming:(int * Osim.Net.actor) list ->
  ?user_input:string list ->
  ?argv:string list ->
  ?env:string list ->
  ?max_ticks:int ->
  main:string ->
  unit ->
  setup

(** The loopback address every world knows as ["LocalHost"]. *)
val localhost_ip : int

(** Block executions by execution tier.  There is one tier, the
    interpreter, so [tc_interpreted] is the session's [vm.blocks] and
    the other three fields are 0.  The record stays because perfbench
    reads it. *)
type tier_counts = {
  tc_interpreted : int;  (** block executions, all interpreted *)
  tc_compiled : int;  (** always 0 *)
  tc_summarized : int;  (** always 0 *)
  tc_deopt : int;  (** always 0 *)
}

type result = {
  os_report : Osim.Kernel.report;
  events : Harrier.Events.t list;
      (** the full event stream, oldest first — [[]] when the engine
          was created with [keep_events:false] *)
  warnings : Secpert.Warning.t list;
  distinct : Secpert.Warning.t list;  (** deduplicated *)
  max_severity : Secpert.Severity.t option;
  event_count : int;
      (** total events emitted (exact even with [keep_events:false]) *)
  degraded : string list;
      (** non-empty when a monitoring budget tripped mid-run: the
          verdict is still sound but conservative (over-tainting may
          add warnings, the warning transcript may be truncated).  One
          human-readable reason per trip. *)
  stats : Obs.snapshot;
      (** observability counters incremented during this run
          (instructions, syscalls by name, rule firings, warnings by
          severity, ...).  Strategy counters — [taint.*] and
          [harrier.shadow.*] — measure how the run was executed rather
          than what the guest did, and are excluded from stats (and
          the embedded trace profile); read them through {!Obs.diff}
          directly when profiling. *)
  hot_blocks : (int * int * int) list;
      (** top-10 hottest application basic blocks as
          [(pid, leader, count)], deterministic ordering — also
          embedded into the trace as ["hot_block"] lines so
          [hth_trace profile] reproduces the live numbers offline *)
  tier : tier_counts;  (** see {!tier_counts} *)
}

(** Supervisor resource budgets for one session.  Every budget degrades
    gracefully: trips surface in {!result.degraded} (and through
    over-tainting possibly extra warnings) — they never abort the
    session. *)
type budgets = {
  b_ticks : int option;  (** instruction budget; caps [setup.max_ticks] *)
  b_shadow_pages : int option;  (** Harrier shadow pages per process *)
  b_warnings : int option;  (** stored-warning cap (verdict stays exact) *)
}

(** All budgets off (unbounded). *)
val no_budgets : budgets

(** [parse_budgets specs] folds repeated [--budget KEY=N] arguments —
    keys [ticks], [shadow-pages], [warnings]; [N] a positive int — over
    {!no_budgets}.  Any other key is an error. *)
val parse_budgets : string list -> (budgets, string) Stdlib.result

type t

(** [create ()] compiles the shared artifacts once.

    [monitor_config] tunes Harrier (ablations turn dataflow /
    frequency / short-circuiting off); [trust] and [auto_kill]
    configure every Secpert instance the engine builds;
    [policy] selects the native rules or the textual CLIPS policy
    (parsed here, once).

    [keep_events] (default [true]): when [false], sessions do not
    accumulate their event stream in memory ([result.events] is [[]]) —
    for long corpus runs where only warnings and verdicts matter. *)
val create :
  ?monitor_config:Harrier.Monitor.config ->
  ?trust:Secpert.Trust.t ->
  ?auto_kill:Secpert.Severity.t ->
  ?policy:Secpert.System.policy ->
  ?keep_events:bool ->
  unit ->
  t

(** [run_outcome engine setup] executes one session against the
    engine's shared artifacts and isolates every session-path failure
    as a typed {!Error.t}: load failures, policy installation errors
    and escaped exceptions become [Error] values instead of aborting
    the process.  [budgets] bounds the run's resources; [fault]
    injects deterministic syscall faults.  Each call increments
    [session.outcome.<kind>].

    [trace] scopes a sink to this session: the engine installs it
    before the first trace line, and flushes + removes it on every exit
    path (including session-path failures, so a crashed run's partial
    trace still reaches the destination).  The sink is removed before
    its last chunk is handed over; if that hand-over raises, a session
    that succeeded becomes [Error (Crash { phase = "trace"; _ })] and a
    failed one keeps its own error.  Without [trace] the ambient
    {!Obs.Trace} sink — whatever the caller installed — is used.

    Reusing the engine across calls reuses its compiled policy; results
    are identical to cold runs. *)
val run_outcome :
  t ->
  ?budgets:budgets ->
  ?fault:Osim.Fault.plan ->
  ?trace:Obs.Trace.target ->
  setup ->
  (result, Error.t) Stdlib.result

(** [run engine setup] is {!run_outcome} for callers that treat failure
    as exceptional.
    @raise Error.Error_exn on any session-path failure. *)
val run :
  t ->
  ?budgets:budgets ->
  ?fault:Osim.Fault.plan ->
  ?trace:Obs.Trace.target ->
  setup ->
  result

(** [run_unmonitored setup] executes with a null monitor — the baseline
    for the Section 9 performance comparison.  Shares the engine path's
    world-boot and spawn wiring, minus monitor and policy.
    @raise Error.Error_exn if the main program cannot be loaded. *)
val run_unmonitored : setup -> Osim.Kernel.report
