(** Shared policy context: trust and the warning sink, plus the policy
    constants every rule reads. *)

(** Policy constants (the CLIPS globals [?*CLONE_RATE*] etc.). *)
type thresholds = {
  rare_frequency : int;  (** a BB count below this is "rare" *)
  long_time : int;  (** events after this many ticks are "late" *)
  clone_count_low : int;  (** more clones so far than this warns Low *)
  clone_rate_medium : int;
      (** more clones than this inside the monitor's window warns Medium *)
  alloc_low : int;  (** heap bytes held beyond this warn Low *)
  alloc_medium : int;  (** ... and beyond this warn Medium *)
}

(** The one set of thresholds: the native rules read it, and the CLIPS
    policy's globals are set from it. *)
val thresholds : thresholds

type t = {
  trust : Trust.t;
  warn : Warning.t -> unit;
}

(** [rarely_executed ~freq ~time] is the paper's reinforcement test:
    low frequency and the program has been running a while.  A frequency
    of 0 means "no frequency data" (tracking disabled) and never counts
    as rare. *)
val rarely_executed : freq:int -> time:int -> bool
