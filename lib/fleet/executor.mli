(** One fleet session: the job a {!Supervisor} queues and the outcome
    it releases.

    Stateless: {!run} executes one job on the fleet's engines, which
    every worker shares (an engine is immutable once created).

    Determinism: a session's result (trace bytes included) depends only
    on its own job, never on which worker ran it or what ran before —
    per-domain Obs state, per-run counter diffs and per-session worlds
    guarantee it (see DESIGN.md §15). *)

type job

(** [job setup] describes one session: [engine] names which of the
    fleet's engines runs it (default ["default"]); [budgets], [fault]
    as in {!Hth.Engine.run_outcome}; [trace] captures the session's
    JSONL trace into the outcome; [store] captures it as a sealed
    warehouse segment instead (both may be set — one chunked sink
    tees, so the bytes agree); [deadline] is a wall-clock budget in
    seconds enforced by the supervisor's watchdog. *)
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
  o_seq : int;  (** the sequence number {!Supervisor.submit} returned *)
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

(** [run engines seq job] runs [job] on the named [engines] as sequence
    number [seq].  Never raises: an unknown engine and any exception —
    in the session, its trace capture or the segment seal — become an
    outcome at [seq]. *)
val run : (string * Hth.Engine.t) list -> int -> job -> outcome
