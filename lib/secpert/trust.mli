(** The trust database.

    The paper's prototype trusts the libc and ld-linux shared objects:
    origins rooted in trusted binaries are filtered out before rules
    evaluate ([filter_binary] / [filter_socket] in Appendix A.2).  This
    is also what makes HTH miss the ElmExploit's [system("... sendmail")]
    — the "/bin/sh" string lives in libc — which we reproduce. *)

type t = {
  trusted_binaries : string list;
  trusted_sockets : string list;  (** none by default, as in the paper *)
}

(** Trusts ["/lib/libc.so"] and ["/lib/ld-linux.so"]. *)
val default : t

(** Trusts nothing — the ablation configuration. *)
val nothing : t

val is_trusted : t -> Taint.Source.t -> bool

(** [untrusted_binaries t tag] is the paper's [filter_binary]: the BINARY
    origins of [tag] that are not trusted. *)
val untrusted_binaries : t -> Taint.Tagset.t -> string list

(** [classify t tag] is the dominant resource-ID origin with trusted
    sources filtered (see {!Taint.Origin.classify}). *)
val classify : t -> Taint.Tagset.t -> Taint.Origin.kind
