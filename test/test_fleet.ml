(* Fleet determinism and isolation.

   The contract from DESIGN.md §15: a batch run on an N-worker fleet is
   observationally identical to the same batch run sequentially —
   byte-identical per-session traces, identical warnings, verdicts and
   error outcomes, in submission order — no matter in which order the
   sessions finished, and no matter which worker ran which session.
   One crashing task or failing session must never take down its
   worker, let alone the pool. *)

let golden_scenarios =
  [ "ElmExploit"; "nlspath"; "procex"; "grabem"; "vixie crontab"; "pma";
    "superforker"; "ls"; "column" ]

let find name =
  match Guest.Corpus.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "scenario %S missing from corpus" name

let check_same_trace msg ~expected ~actual =
  match Forensics.Tdiff.first_divergence ~expected ~actual with
  | None -> ()
  | Some d ->
    Alcotest.failf "%s@.%s" msg (Forensics.Tdiff.report ~name:msg d)

(* ------------------------------------------------------------------ *)
(* scheduling and crash isolation, through the test seams             *)

(* Poll [cond] until it holds; fail the test after [timeout] seconds. *)
let await ?(timeout = 10.) msg cond =
  let give_up = Unix.gettimeofday () +. timeout in
  while not (cond ()) do
    if Unix.gettimeofday () > give_up then
      Alcotest.failf "timed out waiting for: %s" msg;
    Unix.sleepf 0.001
  done

(* A one-shot gate: [wait] blocks until [release] has been called. *)
type latch = { l_mu : Mutex.t; l_cv : Condition.t; mutable l_open : bool }

let latch () =
  { l_mu = Mutex.create (); l_cv = Condition.create (); l_open = false }

let wait l =
  Mutex.protect l.l_mu (fun () ->
      while not l.l_open do
        Condition.wait l.l_cv l.l_mu
      done)

let release l =
  Mutex.protect l.l_mu (fun () ->
      l.l_open <- true;
      Condition.broadcast l.l_cv)

(* A start log: tasks [record] their [(id, epoch)] as they begin, and
   [read] returns the entries in start order. *)
let start_log () =
  let mu = Mutex.create () and log = ref [] in
  let record id epoch =
    Mutex.protect mu (fun () -> log := (id, epoch) :: !log)
  in
  let read () = Mutex.protect mu (fun () -> List.rev !log) in
  record, read

let fifo_case =
  Alcotest.test_case "pool: queued tasks start in submission order"
    `Quick (fun () ->
      let p = Fleet.Supervisor.create ~jobs:1 [] in
      let record, read = start_log () in
      let started = latch () and gate = latch () in
      Fleet.Supervisor.submit_task p (fun _w e ->
          record 0 e;
          release started;
          wait gate);
      (* the only worker is inside task 0 while 1..8 queue up *)
      wait started;
      for i = 1 to 8 do
        Fleet.Supervisor.submit_task p (fun _w e -> record i e)
      done;
      release gate;
      Fleet.Supervisor.shutdown p;
      Alcotest.(check (list int)) "start order" (List.init 9 Fun.id)
        (List.map fst (read ())))

let respawn_case =
  Alcotest.test_case "pool: respawn past a wedged task, ghost runs nothing"
    `Quick (fun () ->
      let p = Fleet.Supervisor.create ~jobs:1 [] in
      let record, read = start_log () in
      let started = latch () and wedge = latch () and busy = latch () in
      Fleet.Supervisor.submit_task p (fun _w e ->
          record 0 e;
          release started;
          wait wedge);
      wait started;
      (* task 1 holds the replacement busy, so tasks 2 and 3 are still
         queued when the ghost's task returns *)
      Fleet.Supervisor.submit_task p (fun _w e ->
          record 1 e;
          wait busy);
      Fleet.Supervisor.submit_task p (fun _w e -> record 2 e);
      Fleet.Supervisor.submit_task p (fun _w e -> record 3 e);
      Alcotest.(check int) "replacement epoch" 1
        (Fleet.Supervisor.respawn p 0);
      await "task 1 started on the replacement" (fun () ->
          List.mem (1, 1) (read ()));
      release wedge;
      (* the ghost finishes task 0; with 2 and 3 queued and the
         replacement still busy, a ghost that kept working would take
         task 2 now *)
      await "ghost task returned" (fun () ->
          (Fleet.Supervisor.stats p).Fleet.Pool.executed >= 1);
      Unix.sleepf 0.05;
      release busy;
      Fleet.Supervisor.shutdown p;
      Alcotest.(check (list (pair int int)))
        "each task once, queued ones on epoch 1"
        [ 0, 0; 1, 1; 2, 1; 3, 1 ] (read ());
      let s = Fleet.Supervisor.stats p in
      Alcotest.(check int) "executed" 4 s.Fleet.Pool.executed;
      Alcotest.(check int) "respawns" 1 s.Fleet.Pool.respawns)

let pool_case =
  Alcotest.test_case "pool: completes all tasks, survives crashes" `Quick
    (fun () ->
      let p = Fleet.Supervisor.create ~jobs:4 [] in
      let hits = Atomic.make 0 in
      for i = 0 to 199 do
        Fleet.Supervisor.submit_task p (fun _w _e ->
            if i mod 10 = 3 then failwith "injected task crash";
            Atomic.incr hits)
      done;
      await "200 tasks executed" (fun () ->
          (Fleet.Supervisor.stats p).Fleet.Pool.executed >= 200);
      (* the pool is still alive after 20 crashing tasks *)
      Fleet.Supervisor.submit_task p (fun _w _e -> Atomic.incr hits);
      Fleet.Supervisor.shutdown p;
      let s = Fleet.Supervisor.stats p in
      Alcotest.(check int) "non-crashing tasks ran" 181 (Atomic.get hits);
      Alcotest.(check int) "every task executed" 201 s.Fleet.Pool.executed;
      Alcotest.(check int) "crashes counted" 20 s.Fleet.Pool.exceptions;
      Alcotest.(check int) "submissions counted" 201 s.Fleet.Pool.injected;
      Alcotest.(check bool) "submit after shutdown rejected" true
        (try
           Fleet.Supervisor.submit_task p (fun _ _ -> ());
           false
         with Invalid_argument _ -> true))

(* ------------------------------------------------------------------ *)
(* fleet runs are byte-identical to sequential runs                    *)

let engine_of () = Hth.Engine.create ()

let fleet_outcomes ?max_inflight ~jobs ?fault names =
  let fleet =
    Fleet.Supervisor.create ?max_inflight ~jobs [ "default", engine_of () ]
  in
  let outs =
    Fleet.Supervisor.run_all fleet
      (List.map
         (fun n -> Fleet.Executor.job ?fault ~trace:true (find n).sc_setup)
         names)
  in
  Fleet.Supervisor.shutdown fleet;
  outs

let capture_cold (sc : Guest.Scenario.t) =
  let buf = Buffer.create 4096 in
  Obs.Trace.to_buffer buf;
  let r =
    Fun.protect ~finally:Obs.Trace.disable (fun () ->
        Guest.Scenario.run sc)
  in
  Buffer.contents buf, r

let identity_case =
  Alcotest.test_case "4 workers vs cold sequential sessions" `Quick
    (fun () ->
      let outs = fleet_outcomes ~jobs:4 golden_scenarios in
      List.iteri
        (fun i (o : Fleet.Executor.outcome) ->
          let name = List.nth golden_scenarios i in
          let cold_trace, cold = capture_cold (find name) in
          Alcotest.(check int) "sequence order" i o.o_seq;
          match o.o_result with
          | Error e ->
            Alcotest.failf "%s: fleet error: %s" name (Hth.Error.to_string e)
          | Ok r ->
            check_same_trace (name ^ ": fleet trace vs cold trace")
              ~expected:cold_trace
              ~actual:(Option.value ~default:"" o.o_trace);
            Alcotest.(check (list string))
              (name ^ ": warnings")
              (List.map Secpert.Warning.to_string cold.warnings)
              (List.map Secpert.Warning.to_string r.warnings);
            Alcotest.(check bool) (name ^ ": verdict") true
              (cold.max_severity = r.max_severity))
        outs)

(* corpus x 4 domains x 5 seeds: the faulted fleet must match the
   one-worker fleet byte for byte *)
let seeds_case =
  Alcotest.test_case "4 workers vs 1 worker across fault seeds" `Quick
    (fun () ->
      List.iter
        (fun seed ->
          let fault = Osim.Fault.seeded seed in
          let seq = fleet_outcomes ~jobs:1 ~fault golden_scenarios in
          let par = fleet_outcomes ~jobs:4 ~fault golden_scenarios in
          List.iter2
            (fun (a : Fleet.Executor.outcome) (b : Fleet.Executor.outcome) ->
              let name = List.nth golden_scenarios a.o_seq in
              (match a.o_result, b.o_result with
               | Ok _, Ok _ | Error _, Error _ -> ()
               | _ ->
                 Alcotest.failf "%s seed %d: outcome class diverged" name
                   seed);
              check_same_trace
                (Printf.sprintf "%s seed %d: jobs=4 vs jobs=1" name seed)
                ~expected:(Option.value ~default:"" a.o_trace)
                ~actual:(Option.value ~default:"" b.o_trace))
            seq par)
        [ 1; 2; 3; 4; 5 ])

(* Admission caps what run_all may hold in flight: with room for two,
   it has to release outcomes while it submits, and must still return
   all nine in order with the traces of an uncapped fleet.  It runs on
   its own thread so that a run_all waiting for outcomes it never
   admitted fails the case instead of hanging it. *)
let bounded_run_all_case =
  Alcotest.test_case "run_all past max_inflight releases as it submits"
    `Quick (fun () ->
      let capped = ref None in
      let th =
        Thread.create
          (fun () ->
            capped :=
              Some (fleet_outcomes ~max_inflight:2 ~jobs:2 golden_scenarios))
          ()
      in
      await ~timeout:60. "capped run_all returned" (fun () ->
          Option.is_some !capped);
      Thread.join th;
      let capped = Option.get !capped in
      let free = fleet_outcomes ~jobs:2 golden_scenarios in
      Alcotest.(check (list int)) "all nine outcomes, in order"
        (List.init (List.length golden_scenarios) Fun.id)
        (List.map (fun (o : Fleet.Executor.outcome) -> o.o_seq) capped);
      List.iter2
        (fun (a : Fleet.Executor.outcome) (b : Fleet.Executor.outcome) ->
          let name = List.nth golden_scenarios a.o_seq in
          check_same_trace (name ^ ": max_inflight 2 vs default")
            ~expected:(Option.value ~default:"" b.o_trace)
            ~actual:(Option.value ~default:"" a.o_trace))
        capped free)

let unknown_engine_case =
  Alcotest.test_case "unknown engine name is an ordered outcome" `Quick
    (fun () ->
      let fleet =
        Fleet.Supervisor.create ~jobs:2 [ "default", engine_of () ]
      in
      let setup = (find "pma").sc_setup in
      let outs =
        Fleet.Supervisor.run_all fleet
          [ Fleet.Executor.job setup;
            Fleet.Executor.job ~engine:"nonesuch" setup;
            Fleet.Executor.job setup ]
      in
      Fleet.Supervisor.shutdown fleet;
      (match outs with
       | [ a; b; c ] ->
         Alcotest.(check bool) "first ok" true (Result.is_ok a.o_result);
         (match b.o_result with
          | Error (Hth.Error.Policy_error msg) ->
            Alcotest.(check bool) "names the engine" true
              (Astring.String.is_infix ~affix:"nonesuch" msg)
          | _ -> Alcotest.fail "expected Policy_error for unknown engine");
         Alcotest.(check bool) "third ok" true (Result.is_ok c.o_result)
       | _ -> Alcotest.fail "expected three outcomes"))

(* Session failures (here: a fault plan breaking the loader) come back
   as the same typed errors the sequential engine reports, at the right
   sequence positions, without disturbing neighbouring sessions. *)
let fault_isolation_case =
  Alcotest.test_case "failing sessions match sequential errors" `Quick
    (fun () ->
      let plan =
        match Osim.Fault.parse "*=eio" with
        | Ok p -> p
        | Error e -> Alcotest.failf "bad plan: %s" e
      in
      let names = [ "pma"; "grabem"; "ls" ] in
      let eng = engine_of () in
      let seq_results =
        List.map
          (fun n -> Hth.Engine.run_outcome eng ~fault:plan (find n).sc_setup)
          names
      in
      let fleet =
        Fleet.Supervisor.create ~jobs:2 [ "default", engine_of () ]
      in
      let outs =
        Fleet.Supervisor.run_all fleet
          (List.map
             (fun n -> Fleet.Executor.job ~fault:plan (find n).sc_setup)
             names)
      in
      Fleet.Supervisor.shutdown fleet;
      List.iter2
        (fun seq (o : Fleet.Executor.outcome) ->
          match seq, o.o_result with
          | Ok a, Ok b ->
            Alcotest.(check bool) "same verdict" true
              (a.Hth.Engine.max_severity = b.Hth.Engine.max_severity)
          | Error a, Error b ->
            Alcotest.(check string) "same error" (Hth.Error.to_string a)
              (Hth.Error.to_string b)
          | _ -> Alcotest.fail "outcome class diverged from sequential")
        seq_results outs)

(* ------------------------------------------------------------------ *)
(* observability: worker shards fold back deterministically            *)

let absorb_case =
  Alcotest.test_case "worker counters absorbed into the main domain"
    `Quick (fun () ->
      let before = Obs.snapshot () in
      let n = List.length golden_scenarios in
      ignore (fleet_outcomes ~jobs:4 golden_scenarios);
      let diff = Obs.diff ~before ~after:(Obs.snapshot ()) in
      let get name =
        match List.assoc_opt name diff with Some v -> v | None -> 0
      in
      Alcotest.(check int) "fleet.tasks" n (get "fleet.tasks");
      Alcotest.(check int) "session outcomes" n (get "session.outcome.ok");
      (* per-session work done on worker domains is visible here *)
      Alcotest.(check bool) "instructions absorbed" true
        (get "vm.instructions" > 0);
      Alcotest.(check bool) "warnings absorbed" true
        (get "secpert.warnings" > 0);
      (* absorbing is deterministic: the same batch adds the same
         totals again *)
      let before2 = Obs.snapshot () in
      ignore (fleet_outcomes ~jobs:4 golden_scenarios);
      let diff2 = Obs.diff ~before:before2 ~after:(Obs.snapshot ()) in
      let stable = [ "vm.instructions"; "secpert.warnings"; "fleet.tasks" ] in
      List.iter
        (fun k ->
          Alcotest.(check int) (k ^ " repeatable")
            (match List.assoc_opt k diff with Some v -> v | None -> 0)
            (match List.assoc_opt k diff2 with Some v -> v | None -> 0))
        stable)

(* ------------------------------------------------------------------ *)
(* serve: ordered line protocol over the fleet                         *)

let serve_once = Test_supervise.serve_once

let field line k =
  match Forensics.Jsonl.parse_line line with
  | Error e -> Alcotest.failf "unparseable response %s: %s" line e
  | Ok fields -> List.assoc_opt k fields

let check_str line k expected =
  match field line k with
  | Some (Forensics.Jsonl.Str s) -> Alcotest.(check string) k expected s
  | _ -> Alcotest.failf "missing string field %S in %s" k line

let serve_case =
  Alcotest.test_case "serve: ordered responses, isolated bad lines"
    `Quick (fun () ->
      let script =
        [ {|{"scenario":"pma","id":"first"}|};
          {|{"scenario":"grabem","policy":"clips"}|};
          "definitely not json";
          {|{"scenario":"no-such-scenario"}|};
          {|{"scenario":"ls","seed":3}|} ]
      in
      let n, out = serve_once script in
      Alcotest.(check int) "requests answered" 5 n;
      Alcotest.(check int) "one response per request" 5 (List.length out);
      List.iteri
        (fun i line ->
          match field line "seq" with
          | Some (Forensics.Jsonl.Int s) ->
            Alcotest.(check int) "responses in input order" i s
          | _ -> Alcotest.failf "missing seq in %s" line)
        out;
      (match out with
       | [ a; b; c; d; e ] ->
         check_str a "status" "ok";
         check_str a "id" "first";
         check_str a "verdict"
           (let r = Guest.Scenario.run (find "pma") in
            Hth.Report.verdict_label (Hth.Report.verdict r));
         check_str b "status" "ok";
         check_str b "scenario" "grabem";
         check_str c "status" "bad_request";
         check_str d "status" "bad_request";
         check_str e "status" "ok";
         Alcotest.(check bool) "match flag present" true
           (field e "match" = Some (Forensics.Jsonl.Bool true))
       | _ -> Alcotest.fail "expected five responses");
      (* serving the same script again is byte-identical *)
      let _, out2 = serve_once script in
      Alcotest.(check (list string)) "deterministic service" out out2)

let suite =
  [ fifo_case; respawn_case; pool_case; identity_case; seeds_case;
    unknown_engine_case; fault_isolation_case; absorb_case; serve_case;
    bounded_run_all_case ]
