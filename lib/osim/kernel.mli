(** The simulated kernel: loader, scheduler and syscall dispatch.

    The kernel owns the filesystem, the network, the process table and
    the global tick counter (time = instructions executed, the paper's
    event timestamp).  A {!monitor} — Harrier, in the full framework —
    observes image loads, process starts, forks and system calls, and may
    decide to kill a process when the user rejects a warning. *)

(** The monitor's verdict before a syscall executes. *)
type decision = Allow | Kill

(** Monitor callbacks.  All fields are mutable so the monitor can be wired
    after the kernel is created (the kernel and monitor reference each
    other). *)
type monitor = {
  mutable on_process_start : Process.t -> unit;
      (** fired on spawn and on a successful [execve] (same pid, new
          machine), after the machine is set up (initial stack in place)
          and before image-load notifications *)
  mutable on_image_load : Process.t -> Binary.Image.t -> unit;
  mutable on_pre_syscall : Process.t -> Syscall.t -> decision;
  mutable on_post_syscall : Process.t -> Syscall.t -> result:int -> unit;
  mutable on_fork : parent:Process.t -> child:Process.t -> unit;
      (** fired after the child's machine is cloned and before it runs *)
}

type t

(** Absolute top of the initial stack; argv/env strings live in
    [esp, stack_top) at process start and are tagged USER_INPUT by the
    monitor. *)
val stack_top : int

(** [create ~fs ~net ()] builds a world with a null {!monitor}; every
    machine it creates starts with {!Vm.Machine.no_hooks}, and a monitor
    binds its own from [on_process_start] and [on_fork]; [user_input]
    scripts the bytes read from stdin; [max_procs] bounds the process
    table ([fork] then fails with EAGAIN, taming fork bombs); [fault]
    injects deterministic syscall faults (default {!Fault.none}) — every
    injection is counted under [osim.faults.injected.<kind>] and emitted
    as an [Obs.Trace] "fault" event. *)
val create :
  ?max_procs:int ->
  ?user_input:string list ->
  ?fault:Fault.plan ->
  fs:Fs.t ->
  net:Net.t ->
  unit ->
  t

val fs : t -> Fs.t

val monitor : t -> monitor

(** [ticks k] is the world clock: total instructions executed. *)
val ticks : t -> int

(** [clone_total k] counts successful forks since creation. *)
val clone_total : t -> int

(** [spawn k ~path ~argv] loads the executable at [path] (plus needed
    shared objects), sets up the initial stack (argv and [env] strings,
    all tagged USER_INPUT by the monitor) and schedules the new
    process.

    Loading is the same on [spawn] and [execve]: the needed-closure is
    read from the world's file system (the image installed last under
    a path wins) and linked there, and the link copies only images that
    carry relocations; one without is mapped as installed, so its text
    array is shared.  A missing image, an unresolved import or an
    unsupported relocation target is an [Error] here and [-ENOEXEC]
    from [execve]. *)
val spawn :
  ?env:string list -> t -> path:string -> argv:string list ->
  (Process.t, string) result

type report = {
  rep_ticks : int;
  rep_console : string;
  rep_final : (int * string * Process.run_state) list;
      (** (pid, executable path, final state) *)
  rep_clones : int;
  rep_max_live : int;
}

(** [run k ~max_ticks] drives the scheduler until every process
    terminates, the tick budget is exhausted, or the world deadlocks
    (remaining blocked processes are then reaped as killed). *)
val run : t -> max_ticks:int -> report

val pp_report : Format.formatter -> report -> unit
