(* The fleet over stdlib Domain/Mutex/Condition: one record, one lock
   (the contract is in supervisor.mli, the rationale in DESIGN.md §15
   and §17).

   Every mutable field of [t] is guarded by [mu].  A worker takes the
   lock once per task: it posts the finished task's outcome, counts
   it and takes the next one in the same critical section.  A job sits
   in [running] from the moment a worker takes it until its outcome is
   posted or the watchdog fails it; an outcome is posted only while
   its job is still there, so a ghost's late completion is dropped.
   Domain.spawn happens outside the lock. *)

type task =
  | Job of int * Executor.job  (* sequence number, session *)
  | Task of (int -> int -> unit)  (* test seam: [f worker epoch] *)

type running = {
  r_slot : int;
  r_epoch : int;
  r_started : float;
  r_deadline : float option;
}

type admission = Admitted of int | Overloaded | Draining

type health = {
  h_jobs : int;
  h_inflight : int;
  h_draining : bool;
  h_timeouts : int;
  h_stats : Pool.stats;
}

type t = {
  engines : (string * Hth.Engine.t) list;  (* shared by every worker *)
  default_deadline : float option;
  max_inflight : int;
  poll : float;
  mu : Mutex.t;
  work : Condition.t;  (* a task was queued, an epoch moved, or stopping *)
  moved : Condition.t;
      (* [next_out]'s outcome arrived, all released, or draining *)
  queue : task Queue.t;
  epochs : int array;  (* per-slot incarnation *)
  mutable domains : unit Domain.t array;
      (* live incarnations; abandoned ones are never joined — they may
         never return *)
  exports : Obs.export option array;  (* worker Obs shards, set at exit *)
  running : (int, running) Hashtbl.t;  (* sequence -> job on a worker *)
  ready : (int, Executor.outcome) Hashtbl.t;  (* finished, not released *)
  mutable next_seq : int;  (* next sequence number to admit *)
  mutable next_out : int;  (* next sequence number [next] releases *)
  mutable draining : bool;  (* refuse work; [next] ends once drained *)
  mutable stopping : bool;  (* workers exit on an empty queue *)
  mutable timeouts : int;
  mutable stats : Pool.stats;
  mutable watchdog : Thread.t option;
}

let c_tasks = Obs.Counter.make "fleet.tasks"
let c_parks = Obs.Counter.make "fleet.parks"
let c_exceptions = Obs.Counter.make "fleet.exceptions"
let c_respawns = Obs.Counter.make "fleet.respawns"

(* Under [mu]. *)
let enqueue t task =
  Queue.push task t.queue;
  t.stats <- { t.stats with injected = t.stats.injected + 1 };
  Condition.signal t.work

(* Under [mu]. *)
let post t seq outcome =
  Hashtbl.replace t.ready seq outcome;
  if seq = t.next_out then Condition.broadcast t.moved

(* Under [mu]: the next task for incarnation [epoch] of slot [w], or
   [None] once that incarnation is stale or the fleet is stopping with
   nothing left to run.  Checking the epoch first means a ghost whose
   wedged task finally returned claims nothing more. *)
let rec take t w epoch =
  if t.epochs.(w) <> epoch then None
  else
    match Queue.take_opt t.queue with
    | Some (Job (seq, j)) as task ->
      Hashtbl.replace t.running seq
        { r_slot = w; r_epoch = epoch; r_started = Unix.gettimeofday ();
          r_deadline = Executor.deadline j };
      task
    | Some (Task _) as task -> task
    | None when t.stopping -> None
    | None ->
      t.stats <- { t.stats with parks = t.stats.parks + 1 };
      Obs.Counter.incr c_parks;
      Condition.wait t.work t.mu;
      take t w epoch

let worker t w epoch =
  let rec loop () =
    match take t w epoch with
    | None ->
      let current = t.epochs.(w) = epoch in
      Mutex.unlock t.mu;
      (* hand this domain's Obs shard (counters, histograms) to shutdown *)
      if current then t.exports.(w) <- Some (Obs.export ())
    | Some task ->
      Mutex.unlock t.mu;
      let outcome, raised =
        match task with
        | Job (seq, j) -> Some (Executor.run t.engines seq j), false
        | Task f ->
          (* a task that raises is counted and dropped, so one bad task
             cannot take its worker down *)
          (None, try f w epoch; false with _ -> true)
      in
      Mutex.lock t.mu;
      Option.iter
        (fun (o : Executor.outcome) ->
          (* gone from [running]: the watchdog already posted Timeout *)
          if Hashtbl.mem t.running o.o_seq then begin
            Hashtbl.remove t.running o.o_seq;
            post t o.o_seq o
          end)
        outcome;
      if raised then begin
        t.stats <- { t.stats with exceptions = t.stats.exceptions + 1 };
        Obs.Counter.incr c_exceptions
      end;
      t.stats <- { t.stats with executed = t.stats.executed + 1 };
      Obs.Counter.incr c_tasks;
      loop ()
  in
  Mutex.lock t.mu;
  loop ()

(* Outside [mu]: start incarnation [epoch] of slot [w]. *)
let spawn t w epoch = Domain.spawn (fun () -> worker t w epoch)

(* Under [mu]: abandon slot [w]'s incarnation and return the next
   epoch.  The broadcast wakes the old incarnation if it was idle
   rather than wedged, so it exits instead of lingering. *)
let retire t w =
  let e = t.epochs.(w) + 1 in
  t.epochs.(w) <- e;
  t.stats <- { t.stats with respawns = t.stats.respawns + 1 };
  Condition.broadcast t.work;
  e

let replace t w epoch =
  Obs.Counter.incr c_respawns;
  t.domains.(w) <- spawn t w epoch

let respawn t w =
  let epoch =
    Mutex.protect t.mu (fun () ->
        if t.stopping then
          invalid_arg "Fleet.Supervisor.respawn: fleet is shut down";
        retire t w)
  in
  replace t w epoch;
  epoch

(* One watchdog pass, one critical section: every overdue job is failed
   with [Timeout] at its sequence position, and its slot is retired
   only while the job's (slot, epoch) is still current — a slot already
   retired must not cost the fleet its innocent replacement.  Returns
   the incarnations to start outside the lock, or [None] once the fleet
   is stopping. *)
let scan t =
  let now = Unix.gettimeofday () in
  Mutex.protect t.mu (fun () ->
      if t.stopping then None
      else
        let overdue =
          Hashtbl.fold
            (fun seq r acc ->
              match r.r_deadline with
              | Some d when now -. r.r_started > d -> (seq, r, d) :: acc
              | _ -> acc)
            t.running []
        in
        Some
          (List.filter_map
             (fun (seq, r, seconds) ->
               Hashtbl.remove t.running seq;
               post t seq
                 { Executor.o_seq = seq; o_trace = None; o_segment = None;
                   o_result = Error (Hth.Error.Timeout { seconds }) };
               t.timeouts <- t.timeouts + 1;
               if t.epochs.(r.r_slot) = r.r_epoch then
                 Some (r.r_slot, retire t r.r_slot)
               else None)
             overdue))

let rec watchdog t =
  Thread.delay t.poll;
  match scan t with
  | None -> ()
  | Some fresh ->
    List.iter (fun (w, e) -> try replace t w e with _ -> ()) fresh;
    watchdog t

let create ?deadline ?(max_inflight = 256) ?(poll = 0.02) ?(jobs = 1)
    engines =
  let jobs = max 1 jobs in
  let t =
    { engines;
      default_deadline = deadline;
      max_inflight = max 1 max_inflight;
      poll = (if poll > 0. then poll else 0.02);
      mu = Mutex.create ();
      work = Condition.create ();
      moved = Condition.create ();
      queue = Queue.create ();
      epochs = Array.make jobs 0;
      domains = [||];
      exports = Array.make jobs None;
      running = Hashtbl.create 16;
      ready = Hashtbl.create 64;
      next_seq = 0;
      next_out = 0;
      draining = false;
      stopping = false;
      timeouts = 0;
      stats =
        { executed = 0; stolen = 0; injected = 0; parks = 0; exceptions = 0;
          respawns = 0 };
      watchdog = None }
  in
  t.domains <- Array.init jobs (fun w -> spawn t w 0);
  t.watchdog <- Some (Thread.create watchdog t);
  t

let submit t job =
  let job =
    match Executor.deadline job, t.default_deadline with
    | None, Some d -> Executor.with_deadline job d
    | _ -> job
  in
  Mutex.protect t.mu (fun () ->
      if t.draining then Draining
      else if t.next_seq - t.next_out >= t.max_inflight then Overloaded
      else begin
        let seq = t.next_seq in
        t.next_seq <- seq + 1;
        enqueue t (Job (seq, job));
        Admitted seq
      end)

let submit_task t f =
  Mutex.protect t.mu (fun () ->
      if t.draining then
        invalid_arg "Fleet.Supervisor.submit_task: fleet is draining";
      enqueue t (Task f))

let next t =
  Mutex.protect t.mu (fun () ->
      let rec wait () =
        match Hashtbl.find_opt t.ready t.next_out with
        | Some o ->
          Hashtbl.remove t.ready t.next_out;
          t.next_out <- t.next_out + 1;
          if t.next_out = t.next_seq then Condition.broadcast t.moved;
          Some o
        | None when t.draining && t.next_out = t.next_seq -> None
        | None ->
          Condition.wait t.moved t.mu;
          wait ()
      in
      wait ())

let run_all t jobs =
  let draining () = invalid_arg "Fleet.Supervisor.run_all: draining" in
  let release acc =
    match next t with Some o -> o :: acc | None -> draining ()
  in
  (* [acc] holds the outcomes released so far, newest first *)
  let rec submit_all acc = function
    | [] -> acc
    | j :: rest as js ->
      (match submit t j with
       | Admitted _ -> submit_all acc rest
       | Overloaded -> submit_all (release acc) js
       | Draining -> draining ())
  in
  let rec release_rest acc n =
    if n = 0 then List.rev acc else release_rest (release acc) (n - 1)
  in
  let acc = submit_all [] jobs in
  release_rest acc (List.length jobs - List.length acc)

let begin_drain t =
  Mutex.protect t.mu (fun () ->
      t.draining <- true;
      Condition.broadcast t.moved)

let await_drain t =
  Mutex.protect t.mu (fun () ->
      while t.next_out < t.next_seq do
        Condition.wait t.moved t.mu
      done)

let health t =
  Mutex.protect t.mu (fun () ->
      { h_jobs = Array.length t.epochs;
        h_inflight = t.next_seq - t.next_out;
        h_draining = t.draining;
        h_timeouts = t.timeouts;
        h_stats = t.stats })

let stats t = Mutex.protect t.mu (fun () -> t.stats)

let shutdown t =
  Mutex.protect t.mu (fun () ->
      t.draining <- true;
      t.stopping <- true;
      Condition.broadcast t.work;
      Condition.broadcast t.moved);
  Option.iter Thread.join t.watchdog;
  (* live workers empty the queue before they exit *)
  Array.iter Domain.join t.domains;
  (* fold worker Obs shards into this domain, in worker-index order:
     the merge result is independent of which worker ran which task *)
  Array.iter (Option.iter Obs.absorb) t.exports
