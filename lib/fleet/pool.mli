(** N-domain task pool with worker supervision.

    [jobs] worker domains take tasks from one FIFO queue behind one
    lock, so tasks start in submission order.  Tasks receive the index
    of the worker running them (0-based) and that worker's {e epoch} —
    the slot's incarnation number, bumped each time {!respawn} replaces
    a wedged worker.  Layers above key per-worker mutable state (engine
    forks) by [(slot, epoch)] so a live replacement and a not-yet-dead
    ghost never share it.

    A task must not raise: anything that escapes is swallowed, counted
    under [fleet.exceptions], and the worker moves on — one broken task
    never takes down the pool (see also {!Executor}, which confines
    session failures to typed outcomes before they ever reach here).

    Domains cannot be killed, so a worker stuck inside a task is
    {e abandoned}, not destroyed: {!respawn} bumps the slot's epoch and
    spawns a replacement.  The wedged worker owns only the task it is
    running — queued work stays in the shared queue for the live
    workers.  If the ghost's task ever returns, the worker notices the
    stale epoch and exits without taking another task; it is never
    joined (it may never return) and its observability shard is lost
    with it.

    Each live worker accumulates observability state (counters,
    histograms, traces) domain-locally; {!shutdown} folds the shards
    back into the calling domain in worker-index order, which makes the
    merged counters deterministic for a fixed job set regardless of
    which worker ran which task. *)

type task = int -> int -> unit
(** [task worker epoch] *)

type t

(** Scheduler telemetry (monotone; readable live from any domain). *)
type stats = {
  executed : int;  (** tasks completed, by live and abandoned workers *)
  stolen : int;
      (** always 0: with one shared queue no worker takes work from
          another.  Kept so telemetry readers of the record (the
          perfbench service report) keep their shape. *)
  injected : int;  (** tasks submitted *)
  parks : int;  (** times a worker went to sleep on an empty queue *)
  exceptions : int;  (** tasks that escaped with an exception *)
  respawns : int;  (** wedged workers replaced *)
}

(** [create ~jobs ()] spawns [max 1 jobs] worker domains, idle until
    work arrives. *)
val create : jobs:int -> unit -> t

val jobs : t -> int

(** [epoch p w] is slot [w]'s current incarnation number (0 until the
    first {!respawn}). *)
val epoch : t -> int -> int

(** [submit p task] appends [task] to the queue; any domain may call
    this (the pool itself must not — workers do not submit).  Raises
    [Invalid_argument] after {!shutdown}. *)
val submit : t -> task -> unit

(** [respawn p w] abandons slot [w]'s current worker (presumed wedged
    inside a task) and spawns a replacement; returns the replacement's
    epoch.  One supervising caller at a time.  Raises
    [Invalid_argument] after {!shutdown}. *)
val respawn : t -> int -> int

(** [shutdown p] refuses further submissions, lets the live workers
    empty the queue, joins them, then absorbs their observability
    shards into the calling domain (worker-index order).  Abandoned
    workers are not joined and their tasks are not waited for.  The
    pool is unusable afterwards. *)
val shutdown : t -> unit

val stats : t -> stats
