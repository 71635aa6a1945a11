(** Harrier: the run-time monitor (Section 7, Fig. 6).

    [attach] wires the monitor into a kernel's callbacks (image loads,
    process starts, forks, syscalls).  Each process has one record of
    all its Harrier state (shadow, short-circuit frames, block counts,
    fd table), bound into the hooks (instruction dataflow, basic-block
    frequency) installed on its machine when it starts or forks; fork
    copies the record, and [execve] replaces it but keeps the fd table.
    Each event takes one path: its "flow" trace line, its counts, then
    the [judge] given to {!attach} (Secpert in the full framework),
    whose [Kill] stops the offending process before the system call
    executes. *)

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
      (** ignored, [false] in {!default_config}: every instruction runs
          through the per-instruction hooks.  The field stays because
          perfbench sets it. *)
}

(** Everything on: dataflow, frequency, gethostbyname short-circuit.
    Clones within 3000 ticks of each other count as "recent", whatever
    the config. *)
val default_config : config

type t

(** [attach ?config ~judge kernel] installs the kernel callbacks, and
    no machine hooks up front.  Call before [Kernel.spawn]: a callback
    for a process that never started raises [Invalid_argument], a wiring
    bug the engine reports as a crash.  Every tag the monitor creates is
    interned in a fresh taint space of its own
    ({!Taint.Tagset.make_space}), which its process shadows share, so
    nothing an earlier session interned affects this one.

    Every event goes through three steps, in order: its "flow" line is
    written when tracing is on (at the step its meta was stamped with,
    so it precedes any "rule"/"warning" lines the judge writes), it is
    counted into [harrier.events] and [harrier.events.<kind>], and
    [judge] decides it.  The decision is honoured for events emitted
    {e before} a system call executes. *)
val attach :
  ?config:config -> judge:(Events.t -> Osim.Kernel.decision) ->
  Osim.Kernel.t -> t

val config : t -> config

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
