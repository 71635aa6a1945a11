(** Fleet supervision: admission control, deadline watchdog, drain.

    A {!t} owns an {!Executor.t} plus the service-lifetime machinery a
    long-lived front end needs (see DESIGN.md §17):

    - a global in-flight cap — {!submit} answers {!Overloaded} past it
      instead of letting queues grow without bound;
    - a watchdog thread that fails jobs past their wall-clock deadline
      with [Error Timeout] and replaces the wedged worker domain
      ({!Executor.force_timeout} + {!Executor.respawn});
    - drain — {!begin_drain} flips refusal on ({!submit} answers
      {!Draining}), {!await_drain} blocks until everything admitted has
      been released.

    Wall-clock deadlines are the fleet's one nondeterministic path:
    they exist for sessions that genuinely wedge (infinite loop with
    no tick accounting, deadlocked guest), not as a substitute for the
    deterministic tick budget, which always fires first for runaway
    guests that still tick. *)

type t

type admission =
  | Admitted of int  (** sequence number, as {!Executor.submit} *)
  | Overloaded  (** global in-flight cap reached; caller should retry *)
  | Draining  (** shutting down; no new work accepted *)

type health = {
  h_jobs : int;
  h_inflight : int;  (** admitted and not yet released by {!next} *)
  h_draining : bool;
  h_timeouts : int;  (** jobs failed by the watchdog *)
  h_stats : Pool.stats;  (** [respawns] counts worker domains replaced *)
}

(** [create ?deadline ?max_inflight ?poll ~jobs engines] builds an
    executor over [engines] and starts the watchdog.  [deadline] is
    applied to submitted jobs that carry none (omit it and deadline-less
    jobs run unsupervised); [max_inflight] (default 256) caps admitted
    jobs globally; [poll] (default 0.02s) is the watchdog scan
    period. *)
val create :
  ?deadline:float ->
  ?max_inflight:int ->
  ?poll:float ->
  ?jobs:int ->
  (string * Hth.Engine.t) list ->
  t

(** Admission-controlled {!Executor.try_submit}. *)
val submit : t -> Executor.job -> admission

(** Ordered outcome release, as {!Executor.next}; additionally credits
    the in-flight window. *)
val next : t -> Executor.outcome option

(** Refuse new submissions from now on ({!submit} answers
    {!Draining}).  Idempotent. *)
val begin_drain : t -> unit

(** Block until the in-flight count reaches zero.  Watchdog deadlines
    guarantee progress even if a worker is wedged — provided the
    wedged jobs carry deadlines. *)
val await_drain : t -> unit

val health : t -> health

(** Drain flag on, watchdog stopped and joined, executor shut down
    (workers joined, observability shards absorbed). *)
val shutdown : t -> unit
