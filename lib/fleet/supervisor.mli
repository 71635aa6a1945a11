(** The fleet: worker domains, admission control, ordered release,
    deadline watchdog and drain — one record behind one lock.

    [jobs] worker domains take work from one FIFO queue, so sessions
    start in submission order.  Every worker runs its sessions on the
    same named engines: an {!Hth.Engine.t} is immutable once created,
    so sharing it across domains needs no copy.  Outcomes come
    back {e in submission order} through a reorder buffer, so output
    derived from {!next} is byte-identical to running the same jobs
    sequentially (see DESIGN.md §15).

    Service-lifetime machinery for a long-lived front end (see
    DESIGN.md §17):

    - a global in-flight cap — {!submit} answers {!Overloaded} past it
      instead of letting queues grow without bound;
    - a watchdog thread that fails jobs past their wall-clock deadline
      with [Error Timeout] at their sequence position and replaces the
      wedged worker domain.  Domains cannot be killed, so the wedged
      one is {e abandoned}: its slot's epoch (incarnation number) is
      bumped, its late outcome, if any, is dropped, and it exits
      without taking more work;
    - drain — {!begin_drain} flips refusal on ({!submit} answers
      {!Draining}), {!await_drain} blocks until everything admitted has
      been released.

    Wall-clock deadlines are the fleet's one nondeterministic path:
    they exist for sessions that genuinely wedge, not as a substitute
    for the deterministic tick budget, which always fires first for
    runaway guests that still tick.

    Observability: scheduler counters ([fleet.tasks], [fleet.parks],
    [fleet.exceptions], [fleet.respawns]) move between task executions,
    never inside one.  Each worker keeps its Obs state domain-locally;
    {!shutdown} folds the shards into the calling domain in
    worker-index order, so merged counters are deterministic for a
    fixed job set.  An abandoned worker's shard is lost with it. *)

type t

type admission =
  | Admitted of int  (** sequence number, as [o_seq] of its outcome *)
  | Overloaded  (** global in-flight cap reached; caller should retry *)
  | Draining  (** shutting down; no new work accepted *)

type health = {
  h_jobs : int;
  h_inflight : int;  (** admitted and not yet released by {!next} *)
  h_draining : bool;
  h_timeouts : int;  (** jobs failed by the watchdog *)
  h_stats : Pool.stats;  (** [respawns] counts worker domains replaced *)
}

(** [create ?deadline ?max_inflight ?poll ~jobs engines] spawns
    [max 1 jobs] worker domains sharing the named engines and starts
    the watchdog.  The engines stay usable by the caller.  [deadline]
    is applied to submitted jobs that carry none
    (omit it and deadline-less jobs run unsupervised); [max_inflight]
    (default 256) caps admitted jobs globally; [poll] (default 0.02s)
    is the watchdog scan period. *)
val create :
  ?deadline:float ->
  ?max_inflight:int ->
  ?poll:float ->
  ?jobs:int ->
  (string * Hth.Engine.t) list ->
  t

(** [submit t job] queues a session, answering its sequence number —
    or {!Overloaded} at the cap, or {!Draining}.  Never raises. *)
val submit : t -> Executor.job -> admission

(** [next t] blocks for the outcome with the lowest unreleased sequence
    number; [None] once the fleet is draining and every admitted
    outcome has been released.  Call from one consumer at a time. *)
val next : t -> Executor.outcome option

(** [run_all t jobs] submits all and returns their outcomes in order,
    releasing outcomes whenever admission answers {!Overloaded}, so a
    batch larger than [max_inflight] still finishes.  Requires every
    earlier outcome to have been released; raises [Invalid_argument]
    once draining. *)
val run_all : t -> Executor.job list -> Executor.outcome list

(** Refuse new submissions from now on ({!submit} answers
    {!Draining}).  Idempotent. *)
val begin_drain : t -> unit

(** Block until everything admitted has been released by {!next}.
    Watchdog deadlines guarantee progress even if a worker is wedged —
    provided the wedged jobs carry deadlines. *)
val await_drain : t -> unit

val health : t -> health

val stats : t -> Pool.stats

(** Drain flag on, watchdog stopped and joined, live workers left to
    empty the queue and joined, observability shards absorbed
    (worker-index order).  Abandoned workers are not joined. *)
val shutdown : t -> unit

(** {2 Test seams} *)

(** [submit_task t task] queues [task worker epoch] on the same FIFO
    queue as jobs, outside admission and the release order.  An
    exception it raises is counted under [fleet.exceptions] and
    dropped.  Raises [Invalid_argument] once draining. *)
val submit_task : t -> (int -> int -> unit) -> unit

(** [respawn t w] abandons slot [w]'s current worker, as the watchdog
    does for a wedged one, and spawns a replacement; returns the
    replacement's epoch.  Raises [Invalid_argument] after
    {!shutdown}. *)
val respawn : t -> int -> int
