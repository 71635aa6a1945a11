(** Harrier: the run-time monitor (Section 7, Fig. 6).

    [attach] wires the monitor into a kernel's callbacks (image loads,
    process starts, forks, syscalls).  Each process has one record of
    all its Harrier state (shadow, short-circuit frames, block counts,
    fd table, tier table), bound into the hooks (instruction dataflow,
    basic-block frequency, tiering) installed on its machine when it
    starts or forks; fork copies the record, and [execve] replaces it
    but keeps the fd table.  Events are delivered to a list of
    {e subscribers} registered with {!subscribe} — trace emission,
    metrics, an event accumulator, and Secpert in the full framework.
    Every subscriber sees every event; any of them may answer [Kill],
    which stops the offending process before the system call executes. *)

type config = {
  track_dataflow : bool;  (** per-instruction taint (Section 7.3) *)
  track_frequency : bool;  (** BB counting (Section 7.4) *)
  shortcircuit : Shortcircuit.spec list;
      (** library routines tracked atomically (Section 7.2) *)
  shadow_page_budget : int option;
      (** bound on live shadow pages per process; when it trips, taint
          saturates to conservative over-tainting (see {!Shadow.create})
          and the run is flagged {!degraded}.  [None] = exact tracking *)
  tier : bool;
      (** tiered execution: hot straight-line blocks run as compiled
          bodies with one fused taint-summary application instead of
          per-instruction shadow ops.  Behaviour-preserving — blocks
          whose flow the summary analysis cannot capture exactly stay
          interpreted.  Forced off under a [shadow_page_budget]. *)
  tier_threshold : int;
      (** per-process hit count at which a block is promoted *)
}

(** Everything on: dataflow, frequency, gethostbyname short-circuit,
    tiering at threshold 8.  Clones within 3000 ticks of each other
    count as "recent", whatever the config. *)
val default_config : config

type t

(** An event consumer.  Sinks are called in registration order on every
    event; the monitor's combined decision is [Kill] iff any sink
    answered [Kill] (no sink is skipped — accumulators and metrics stay
    exact even for killed processes). *)
type sink = Events.t -> Osim.Kernel.decision

(** [attach ?config kernel] installs the kernel callbacks, and no
    machine hooks up front.  Call before [Kernel.spawn]: a callback for
    a process that never started raises [Invalid_argument], a wiring bug
    the engine reports as a crash.  Every tag the monitor creates is
    interned in a fresh taint space of its own ({!Taint.Space.create}),
    which its process shadows share, so nothing an earlier session
    interned affects this one. *)
val attach : ?config:config -> Osim.Kernel.t -> t

val config : t -> config

(** [subscribe t f] appends [f] to the subscriber list.  Decisions of
    sinks are honoured for events emitted {e before} a system call
    executes.

    Registration order is the dispatch order, and it matters for traced
    runs: {!trace_sink} must be registered {e first}, so each event's
    "flow" line lands at the step pre-stamped in its meta and precedes
    any "rule"/"warning" lines emitted by a policy sink downstream. *)
val subscribe : t -> sink -> unit

(** Emits one structured "flow" trace line per event (no-op when
    tracing is off).  Register first; see {!subscribe}. *)
val trace_sink : sink

(** Counts events into [harrier.events] and [harrier.events.<kind>]. *)
val metrics_sink : sink

val event_count : t -> int

(** [hot_blocks t ~limit] is the top-[limit] hottest application basic
    blocks over every process as [(pid, leader, count)] (see {!Freq}),
    ordered by count descending, then pid and leader ascending.  A
    process's counts restart at [execve]. *)
val hot_blocks : t -> limit:int -> (int * int * int) list

(** [degraded t] lists one human-readable reason per process whose
    shadow tripped its page budget (pid order, deterministic); empty
    when monitoring stayed exact.  Degraded runs over-taint — they may
    raise extra warnings but never lose one. *)
val degraded : t -> string list

(** Table 3 of the paper: (policy rule, instrumentation granularity,
    information gathered), one row per instrumentation point this
    monitor registers. *)
val instrumentation_table : (string * string * string) list
