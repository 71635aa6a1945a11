(** Per-warning causal chains, reconstructed offline.

    [explain] walks a recorded trace and, for each ["warning"] line,
    rebuilds the chain: the rule activation that fired it, the
    working-memory facts that activation matched (each resolving by
    step index to the ["flow"] event it encodes), and the
    taint-classified origins the policy consulted (each resolving to
    the first trace event that touched the responsible resource).
    Everything is a pure function of the trace bytes — no engine, no
    guest re-execution — so rendering is byte-deterministic.  The
    warning's evidence fields are read with {!Secpert.Evidence}'s
    parsers, which own their format. *)

type origin_link = {
  origin : Secpert.Evidence.origin_ref;
  res_first : Reader.entry option;
      (** first flow line naming the resource itself *)
  origin_first : Reader.entry option;
      (** first flow line naming the resource its {e name} came from *)
}

type t = {
  warning : Reader.entry;
  rule : Reader.entry option;
      (** the nearest preceding ["rule"] line — the firing activation *)
  facts : (Secpert.Evidence.fact_ref * Reader.entry option) list;
      (** matched facts with the trace entry at their recorded step *)
  origins : origin_link list;
}

val explain : Reader.t -> t list
(** All warning chains, trace order. *)

val pp_chains : Format.formatter -> t list -> unit
(** All chains, blank-line separated. *)

val json_of_chain : t -> string
(** One-line JSON object for a chain. *)
