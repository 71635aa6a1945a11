(** Cross-session behaviour profiles (Section 10, items 6 and 8).

    The paper's prototype judges a single execution, which makes trusted
    programs like g++ warn on every run.  A profile records the warnings
    a user has {e acknowledged} as expected for a program; subsequent
    sessions split their warnings into novel ones (worth showing) and
    known ones (suppressed), reducing false positives across sessions
    exactly as the paper's future work proposes. *)

type t

val create : unit -> t

(** [known t w] is true once [w]'s fingerprint has been acknowledged. *)
val known : t -> Secpert.Warning.t -> bool

(** [acknowledge t ws] marks all of [ws] as expected behaviour. *)
val acknowledge : t -> Secpert.Warning.t list -> unit

(** [novel t ws] filters out acknowledged warnings. *)
val novel : t -> Secpert.Warning.t list -> Secpert.Warning.t list

(** [effective_verdict t result] is the verdict computed from the novel
    warnings only. *)
val effective_verdict : t -> Engine.result -> Report.verdict

(** {2 Persistence}

    Profiles survive between runs as plain text: one line per
    acknowledged fingerprint with its count. *)

val to_string : t -> string

val of_string : string -> t

val size : t -> int
