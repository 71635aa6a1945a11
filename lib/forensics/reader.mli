(** Loading a recorded JSONL trace into memory.

    One {!entry} per line, in file order; the [step] index is the
    primary key (monotone from 0 within a recording). *)

type entry = {
  step : int;
  ev : string;  (** event kind: phase / syscall / flow / rule / ... *)
  fields : (string * Jsonl.value) list;
  line : int;  (** 1-based line number in the file *)
  raw : string;  (** the verbatim line *)
}

type t

val of_string : string -> (t, string) result
(** Parse a whole trace; empty lines are skipped, any malformed line
    is an error. *)

val of_file : string -> (t, string) result

val entries : t -> entry list
(** All entries, file order. *)

val length : t -> int

val find_step : t -> int -> entry option

val int_field : entry -> string -> int option

val str_field : entry -> string -> string option

val bool_field : entry -> string -> bool option

val first_naming : t -> string -> entry option
(** The earliest ["flow"] entry naming the resource — the first time
    the monitored program touched it. *)

val events : t -> (Harrier.Events.t list, string) result
(** The Harrier events of every ["flow"] line, in trace order, decoded
    with {!Harrier.Events.of_fields} into one private taint space —
    the input {!Secpert.System.replay} re-judges. *)
