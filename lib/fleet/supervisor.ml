(* Fleet supervision: admission control, wall-clock watchdog, drain.

   Sits between the executor and a front end (Serve / hth_serve).
   Three concerns, all about keeping a long-lived service answering:

   - Admission: a global in-flight cap.  Past it, [submit] answers
     [Overloaded] instead of letting the reorder buffer and response
     queues grow without bound.  (Per-connection fairness windows live
     in Serve — connections block their own reader, which is
     deterministic; the global cap is the cross-connection backstop.)

   - Deadlines: a watchdog thread scans running jobs; one that overran
     its wall-clock deadline is failed with [Error Timeout] at its
     sequence position and its worker domain is replaced, so a single
     wedged session can never stall the release order or eat a worker
     for good.  Wall time makes this the one nondeterministic path in
     the fleet: deadlines are a last resort behind the deterministic
     tick budget, and never fire for deterministic, terminating
     sessions given a sane deadline.

   - Drain: [begin_drain] flips refusal on, [await_drain] blocks until
     every admitted job has been released — the SIGTERM half of a
     graceful shutdown, leaving [shutdown] to tear the fleet down. *)

type admission = Admitted of int | Overloaded | Draining

type health = {
  h_jobs : int;
  h_inflight : int;
  h_draining : bool;
  h_timeouts : int;
  h_stats : Pool.stats;
}

type t = {
  ex : Executor.t;
  default_deadline : float option;
  max_inflight : int;
  poll : float;
  mu : Mutex.t;
  cv : Condition.t;  (* in-flight count moved *)
  mutable inflight : int;  (* admitted, not yet released by [next] *)
  mutable draining : bool;
  mutable stopping : bool;  (* watchdog exit flag *)
  mutable timeouts : int;
  mutable watchdog : Thread.t option;
}

(* One scan: every overdue job is failed in place; its worker is
   replaced only if the (worker, epoch) pair is still current — a
   ghost worker that wedged a second time is already abandoned and
   must not cost the fleet its innocent replacement. *)
let scan t =
  let now = Unix.gettimeofday () in
  List.iter
    (fun seq ->
      match Executor.force_timeout t.ex seq with
      | None -> ()  (* finished while we looked *)
      | Some (w, epoch) ->
        Mutex.lock t.mu;
        t.timeouts <- t.timeouts + 1;
        Mutex.unlock t.mu;
        if Executor.epoch t.ex w = epoch then Executor.respawn t.ex w)
    (Executor.overdue t.ex ~now)

let watchdog_loop t =
  let rec go () =
    if not t.stopping then begin
      Thread.delay t.poll;
      (try scan t with _ -> ());
      go ()
    end
  in
  go ()

let create ?deadline ?(max_inflight = 256) ?(poll = 0.02) ?(jobs = 1)
    engines =
  let t =
    { ex = Executor.create ~jobs engines;
      default_deadline = deadline;
      max_inflight = max 1 max_inflight;
      poll = (if poll > 0. then poll else 0.02);
      mu = Mutex.create ();
      cv = Condition.create ();
      inflight = 0;
      draining = false;
      stopping = false;
      timeouts = 0;
      watchdog = None }
  in
  t.watchdog <- Some (Thread.create watchdog_loop t);
  t

let submit t job =
  let job =
    match Executor.deadline job, t.default_deadline with
    | None, Some d -> Executor.with_deadline job d
    | _ -> job
  in
  Mutex.lock t.mu;
  if t.draining then begin
    Mutex.unlock t.mu;
    Draining
  end
  else if t.inflight >= t.max_inflight then begin
    Mutex.unlock t.mu;
    Overloaded
  end
  else begin
    (* count before releasing the lock so concurrent submitters cannot
       overshoot the cap; roll back if the executor is already closed *)
    t.inflight <- t.inflight + 1;
    Mutex.unlock t.mu;
    match Executor.try_submit t.ex job with
    | Some seq -> Admitted seq
    | None ->
      Mutex.lock t.mu;
      t.inflight <- t.inflight - 1;
      Condition.broadcast t.cv;
      Mutex.unlock t.mu;
      Draining
  end

let next t =
  match Executor.next t.ex with
  | None -> None
  | Some o ->
    Mutex.lock t.mu;
    t.inflight <- t.inflight - 1;
    Condition.broadcast t.cv;
    Mutex.unlock t.mu;
    Some o

let begin_drain t =
  Mutex.lock t.mu;
  t.draining <- true;
  Mutex.unlock t.mu

let await_drain t =
  Mutex.lock t.mu;
  while t.inflight > 0 do
    Condition.wait t.cv t.mu
  done;
  Mutex.unlock t.mu

let health t =
  Mutex.lock t.mu;
  let h =
    { h_jobs = Executor.jobs t.ex;
      h_inflight = t.inflight;
      h_draining = t.draining;
      h_timeouts = t.timeouts;
      h_stats = Executor.stats t.ex }
  in
  Mutex.unlock t.mu;
  h

let shutdown t =
  begin_drain t;
  Mutex.lock t.mu;
  t.stopping <- true;
  Mutex.unlock t.mu;
  Option.iter Thread.join t.watchdog;
  t.watchdog <- None;
  Executor.shutdown t.ex
