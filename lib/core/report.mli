(** Rendering session results and deriving verdicts. *)

(** What HTH concluded about a run. *)
type verdict =
  | Benign  (** no warnings at all *)
  | Suspicious of Secpert.Severity.t  (** highest warning severity *)

val verdict : Engine.result -> verdict

val equal_verdict : verdict -> verdict -> bool

val verdict_label : verdict -> string

val pp_verdict : Format.formatter -> verdict -> unit

(** [pp_result ~verbose ppf r] prints warnings (deduplicated) and, when
    [verbose], the raw event stream and the OS report. *)
val pp_result : verbose:bool -> Format.formatter -> Engine.result -> unit

(** [pp_stats ppf stats] renders a session's observability counters as
    an aligned name/value table, followed by the non-empty histograms
    with mean and p50/p95/p99 percentiles (deterministic sample
    reservoir; wall-clock spans, so the values — not the shape — vary
    run to run). *)
val pp_stats : Format.formatter -> Obs.snapshot -> unit

(** [pp_hot_blocks ppf blocks] renders {!Engine.result.hot_blocks}
    as a [pid addr count] table; prints nothing for an empty list. *)
val pp_hot_blocks : Format.formatter -> (int * int * int) list -> unit
