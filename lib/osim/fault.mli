(** Deterministic fault injection for the simulated kernel.

    A {!plan} decides, per syscall attempt, whether the kernel should
    deliver a fault instead of (or while) executing the call.  Plans are
    pure descriptions; the kernel holds a {!state} (per-world occurrence
    counters) created by {!start}, so identical worlds driven by the same
    plan take byte-identical fault decisions — traces of faulted runs
    stay reproducible.

    Two plan shapes exist:
    - explicit rules, selected by (syscall, resource substring,
      nth occurrence) — written by hand or parsed from the
      [--fault-plan] SPEC syntax;
    - seeded plans, where a pure hash of
      [(seed, syscall, resource, occurrence)] picks injection points and
      fault kinds pseudo-randomly but deterministically.

    The kernel emits every injection as an [Obs.Trace] "fault" event and
    counts it under [osim.faults.injected.<kind>]. *)

(** What to inject. *)
type kind =
  | Errno of int  (** fail the call with [-errno] *)
  | Short  (** truncate a read/write length (at least 1 byte survives) *)
  | Stall  (** block the call for one scheduler round (peer stall) *)
  | Reset  (** fail a socket call with [-ECONNRESET] *)

(** [kind_name k] is the counter/trace label: the lowercase errno name
    ("enoent") or "short" / "stall" / "reset". *)
val kind_name : kind -> string

(** One explicit injection site. *)
type rule = {
  r_call : string option;  (** syscall name ("SYS_open"); [None] = any *)
  r_res : string option;
      (** substring of the resource name (path, peer, "stdin");
          [None] = any *)
  r_nth : int option;
      (** fire only on the nth matching occurrence (1-based);
          [None] = every occurrence *)
  r_kind : kind;
}

type plan

(** The plan that never injects ([start none] decides [None] always). *)
val none : plan

(** [seeded seed] injects on roughly 1 in 16 of the syscalls that have
    an applicable fault kind ([to_string] renders [seed:N/rate:16]),
    choosing the kind from the applicable set — ENOENT/EIO/ENOMEM on
    opens, EIO/short on file reads and writes, ECONNRESET/short/stall on
    socket traffic, EAGAIN on clone. *)
val seeded : int -> plan

(** [parse spec] reads the [--fault-plan] syntax: comma-separated rules
    [CALL[@RESOURCE][#N]=KIND] where [CALL] is a syscall name or [*],
    [RESOURCE] a resource-name substring, [N] the 1-based occurrence,
    and [KIND] one of [enoent], [eio], [enomem], [eagain], [econnreset],
    [short], [stall], [reset].
    Example: ["SYS_open@/etc/passwd#2=enoent,SYS_read=short"]. *)
val parse : string -> (plan, string) result

val to_string : plan -> string

(** Mutable per-world decision state (occurrence counters). *)
type state

val start : plan -> state

val active : state -> bool

(** [decide st ~call ~res ~sock] is consulted once per non-retried
    syscall attempt; it advances the [(call, res)] occurrence counter
    and returns the fault to inject, if any.  [sock] marks socket
    resources (selects the socket fault set for seeded plans). *)
val decide : state -> call:string -> res:string -> sock:bool -> kind option
