(** Fleet scheduler telemetry, as {!Supervisor.stats} and
    {!Supervisor.health} report it (monotone; readable live from any
    domain). *)

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
