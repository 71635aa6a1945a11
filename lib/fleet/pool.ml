(* N-domain task pool over stdlib Domain/Mutex/Condition: one FIFO
   queue behind one lock.

   Tasks are whole analysis sessions (milliseconds each), so taking one
   lock per task costs nothing measurable, and a single queue starts
   work in submission order — at jobs=1 it also finishes in that order,
   so the in-order emitters above (Executor.next, Serve) never hold a
   finished response for an earlier request that started later.  An
   idle worker sleeps on [work] rather than spinning: on an
   oversubscribed host, spinning domains would take the cores from the
   domains doing the work.

   Supervision: a domain cannot be killed, so a wedged worker (a task
   that never returns) is *abandoned*.  With one shared queue it owns
   nothing but the task it is running, so [respawn] just bumps the
   slot's epoch and spawns a replacement domain on the same slot.  The
   abandoned domain, should its task ever return, sees the stale epoch
   the next time it takes the lock and exits without claiming more
   work.  Tasks receive their worker's epoch so layers above (the
   executor) can keep per-(slot, epoch) state — e.g. engine forks —
   that a live replacement and a not-yet-dead ghost never share.

   Observability: scheduler counters (fleet.tasks / parks / exceptions
   / respawns) are incremented between task executions, never inside
   one, so they cannot leak into a session's per-run counter diff or
   trace.  Each worker accumulates all its Obs state domain-locally; at
   [shutdown] the shards are folded into the caller in worker-index
   order — a deterministic merge (see Obs.absorb).  An abandoned
   domain's shard is lost with it. *)

type task = int -> int -> unit

type stats = {
  executed : int;
  stolen : int;
  injected : int;
  parks : int;
  exceptions : int;
  respawns : int;
}

type t = {
  jobs : int;
  queue : task Queue.t;  (* under [lock] *)
  lock : Mutex.t;
  work : Condition.t;  (* a task was queued, an epoch moved, or stopping *)
  mutable stopping : bool;  (* under [lock] *)
  epochs : int Atomic.t array;
      (* per-slot incarnation; bumped under [lock] by [respawn] *)
  s_executed : int Atomic.t;
  s_injected : int Atomic.t;
  s_parks : int Atomic.t;
  s_exceptions : int Atomic.t;
  s_respawns : int Atomic.t;
  exports : Obs.export option array;  (* worker Obs shards, set at exit *)
  mutable domains : unit Domain.t array;
      (* live incarnations; abandoned ones are never joined — they may
         never return *)
}

let c_tasks = Obs.Counter.make "fleet.tasks"
let c_parks = Obs.Counter.make "fleet.parks"
let c_exceptions = Obs.Counter.make "fleet.exceptions"
let c_respawns = Obs.Counter.make "fleet.respawns"

let exec p w epoch task =
  (try task w epoch
   with _ ->
     (* tasks are expected to confine their own failures (the executor
        wraps sessions); anything that still escapes is counted and
        dropped so one bad task cannot take its worker down *)
     Atomic.incr p.s_exceptions;
     Obs.Counter.incr c_exceptions);
  Atomic.incr p.s_executed;
  Obs.Counter.incr c_tasks

(* Under [lock]: the next task for incarnation [epoch] of slot [w], or
   [None] once that incarnation is stale or the pool is stopping with
   nothing left to run.  Checking the epoch first means a ghost whose
   wedged task finally returned claims nothing more. *)
let rec take p w epoch =
  if Atomic.get p.epochs.(w) <> epoch then None
  else
    match Queue.take_opt p.queue with
    | Some _ as task -> task
    | None when p.stopping -> None
    | None ->
      Atomic.incr p.s_parks;
      Obs.Counter.incr c_parks;
      Condition.wait p.work p.lock;
      take p w epoch

let worker p w epoch =
  let rec loop () =
    match Mutex.protect p.lock (fun () -> take p w epoch) with
    | Some task ->
      exec p w epoch task;
      loop ()
    | None -> ()
  in
  loop ();
  if Atomic.get p.epochs.(w) = epoch then
    (* hand this domain's Obs shard (counters, histograms) to shutdown *)
    p.exports.(w) <- Some (Obs.export ())

let create ~jobs () =
  let jobs = max 1 jobs in
  let p =
    { jobs;
      queue = Queue.create ();
      lock = Mutex.create ();
      work = Condition.create ();
      stopping = false;
      epochs = Array.init jobs (fun _ -> Atomic.make 0);
      s_executed = Atomic.make 0;
      s_injected = Atomic.make 0;
      s_parks = Atomic.make 0;
      s_exceptions = Atomic.make 0;
      s_respawns = Atomic.make 0;
      exports = Array.make jobs None;
      domains = [||] }
  in
  p.domains <-
    Array.init jobs (fun w -> Domain.spawn (fun () -> worker p w 0));
  p

let jobs p = p.jobs

let epoch p w = Atomic.get p.epochs.(w)

let submit p task =
  Mutex.protect p.lock (fun () ->
      if p.stopping then invalid_arg "Fleet.Pool.submit: pool is shut down";
      Queue.push task p.queue;
      Condition.signal p.work);
  Atomic.incr p.s_injected

(* Single supervising caller assumed — concurrent respawns of the same
   slot are not supported.  The broadcast wakes the old incarnation if
   it was idle rather than wedged, so it exits instead of lingering. *)
let respawn p w =
  let next_epoch =
    Mutex.protect p.lock (fun () ->
        if p.stopping then invalid_arg "Fleet.Pool.respawn: pool is shut down";
        let e = Atomic.get p.epochs.(w) + 1 in
        Atomic.set p.epochs.(w) e;
        Condition.broadcast p.work;
        e)
  in
  Atomic.incr p.s_respawns;
  Obs.Counter.incr c_respawns;
  p.domains.(w) <- Domain.spawn (fun () -> worker p w next_epoch);
  next_epoch

let shutdown p =
  Mutex.protect p.lock (fun () ->
      p.stopping <- true;
      Condition.broadcast p.work);
  (* live workers empty the queue before they exit *)
  Array.iter Domain.join p.domains;
  (* fold worker Obs shards into this domain, in worker-index order:
     the merge result is independent of which worker ran which task *)
  Array.iter (function Some x -> Obs.absorb x | None -> ()) p.exports

let stats p =
  { executed = Atomic.get p.s_executed;
    stolen = 0;
    injected = Atomic.get p.s_injected;
    parks = Atomic.get p.s_parks;
    exceptions = Atomic.get p.s_exceptions;
    respawns = Atomic.get p.s_respawns }
