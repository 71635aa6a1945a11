(** Domain-parallel session executor.

    Wraps {!Pool} with everything Engine-shaped: each worker owns an
    {!Hth.Engine.fork} of every named engine (compiled artifacts
    shared, mutable pools private, keyed by worker slot {e and} epoch
    so respawned workers never share a fork with the ghost they
    replaced), sessions run as pool tasks, and outcomes come back
    {e in submission order} through a reorder buffer — so batch output
    derived from {!next} is byte-identical to running the same jobs
    sequentially.  The pool starts sessions in submission order, but
    they finish in whatever order their lengths and the workers
    dictate; the reorder buffer is what makes the output order fixed.

    Determinism: a session's result (trace bytes included) depends only
    on its own job, never on which worker ran it or what ran before —
    per-domain Obs state, per-run counter diffs, and fork-private
    pools guarantee it (see DESIGN.md §15).  The one exception is the
    supervision path: {!force_timeout} consults the wall clock, so it
    only ever fires for sessions that genuinely wedge (see DESIGN.md
    §17). *)

type t

type job

(** [job setup] describes one session: [engine] names which of the
    executor's engines runs it (default ["default"]); [budgets],
    [fault] as in {!Hth.Engine.run_outcome}; [trace] captures the
    session's JSONL trace into the outcome; [store] captures it as a
    sealed warehouse segment instead (both may be set — one chunked
    sink tees, so the bytes agree); [deadline] is a wall-clock budget
    in seconds enforced by a supervisor calling {!force_timeout} (the
    executor itself never watches the clock). *)
val job :
  ?engine:string ->
  ?budgets:Hth.Engine.budgets ->
  ?fault:Osim.Fault.plan ->
  ?trace:bool ->
  ?store:bool ->
  ?deadline:float ->
  Hth.Engine.setup ->
  job

(** [with_deadline j s] is [j] with its deadline replaced by [s]. *)
val with_deadline : job -> float -> job

val deadline : job -> float option

type outcome = {
  o_seq : int;  (** the sequence number {!submit} returned *)
  o_trace : string option;  (** JSONL trace bytes when [trace:true] *)
  o_segment : Store.Segment.sealed option;
      (** sealed segment when [store:true] — the coordinator appends
          these to a {!Store.Warehouse.t} in release order, which makes
          the manifest deterministic across worker counts *)
  o_result : (Hth.Engine.result, Hth.Error.t) Stdlib.result;
      (** typed per-session outcome; a job naming an unknown engine
          yields [Error (Policy_error _)], an escaped exception
          [Error (Crash _)], a forced wall-clock timeout
          [Error (Timeout _)] — the fleet itself never propagates *)
}

(** [create ~jobs engines] forks each named engine once per worker and
    spawns the pool.  The parent engines stay usable by the caller. *)
val create : ?jobs:int -> (string * Hth.Engine.t) list -> t

val jobs : t -> int

(** [epoch t w] is worker slot [w]'s current incarnation (see
    {!Pool.epoch}). *)
val epoch : t -> int -> int

(** [submit t job] enqueues a session, returning its sequence number.
    Raises [Invalid_argument] after {!close} — programmer error; use
    {!try_submit} on paths that race shutdown. *)
val submit : t -> job -> int

(** [try_submit t job] is {!submit} returning [None] instead of
    raising once the executor is closed — for servers whose read loops
    legitimately race a drain. *)
val try_submit : t -> job -> int option

(** [next t] blocks for the outcome with the lowest unreleased sequence
    number; [None] once the executor is closed and every outcome has
    been released.  Call from one consumer at a time. *)
val next : t -> outcome option

(** [overdue t ~now] is the sorted sequence numbers of running jobs
    whose wall-clock deadline has passed at time [now]
    ([Unix.gettimeofday] scale). *)
val overdue : t -> now:float -> int list

(** [force_timeout t seq] abandons a running job: synthesizes an
    [Error Timeout] outcome at its sequence position (so {!next} never
    stalls on it) and returns the [(worker, epoch)] it was running on,
    or [None] if it completed in the meantime.  The job's eventual
    late completion, if any, is dropped.  Pair with {!respawn} when
    the returned epoch is still current. *)
val force_timeout : t -> int -> (int * int) option

(** [respawn t w] re-forks every engine for slot [w]'s next epoch and
    replaces the worker domain (see {!Pool.respawn}).  One supervising
    caller at a time. *)
val respawn : t -> int -> unit

(** [run_all t jobs] submits all and collects their outcomes in order —
    the whole-batch convenience (requires every previously submitted
    outcome to have been consumed). *)
val run_all : t -> job list -> outcome list

(** No further submissions; pending work still completes and {!next}
    drains it. *)
val close : t -> unit

(** [shutdown t] closes, drains, joins the workers and absorbs their
    observability shards into the calling domain (worker-index order —
    deterministic counter totals). *)
val shutdown : t -> unit

val stats : t -> Pool.stats
