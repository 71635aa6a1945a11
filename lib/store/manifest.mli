(** The fleet manifest: one flat-JSONL line per stored run.

    [MANIFEST.jsonl] is the warehouse's source of truth — a run's
    segment is visible to queries iff a manifest line locates it in
    the pack, and the line is written only after the segment's bytes
    are flushed, so a drained or killed writer leaves complete runs or
    no run at all.

    Every field is part of the deterministic query surface: rendering
    an entry is a pure function, and [seed]/[fault] are omitted (not
    nulled) when absent so byte-comparison across store builds is
    exact. *)

type entry = {
  e_run : string;  (** unique run id within the store *)
  e_scenario : string;
  e_policy : string;  (** "native" or "clips" *)
  e_seed : int option;
  e_fault : string option;  (** fault-plan spec, if injected *)
  e_verdict : string;  (** verdict label, or [error:<kind>] *)
  e_expected : string;
  e_match : bool;  (** verdict matched the scenario expectation *)
  e_warnings : int;
  e_distinct : int;
  e_degraded : bool;
  e_steps : int;
  e_raw_bytes : int;
  e_framed_bytes : int;
  e_digest : string;  (** {!digest} of the run's embedded counters *)
  e_segment : string;
      (** pack locator ["segments.pack#<offset>"]: the segment is the
          [e_framed_bytes] bytes at that offset of the store's pack *)
}

val render : entry -> string
(** One manifest line, newline-terminated. *)

val parse : string -> (entry, string) result

val digest : (string * int) list -> string
(** FNV-1a 64-bit over [name=value] pairs — a compact fingerprint of a
    run's counter profile, for cheap cross-run "same behaviour?"
    checks. *)
