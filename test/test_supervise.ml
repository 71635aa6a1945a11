(* Serve supervision: wedged-worker watchdog, admission control,
   drain, dead connections, and concurrent-connection determinism
   (DESIGN.md §17). *)

let find name =
  match Guest.Corpus.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "unknown scenario %S" name

let resolver name =
  Option.map
    (fun (sc : Guest.Scenario.t) ->
      { Fleet.Serve.t_setup = sc.sc_setup;
        t_expected = Guest.Scenario.expected_label sc.sc_expected;
        t_matches = Guest.Scenario.matches sc.sc_expected })
    (Guest.Corpus.find name)

let make_input lines =
  let rest = ref lines in
  fun () ->
    match !rest with
    | [] -> None
    | l :: tl ->
      rest := tl;
      Some l

(* Serve one connection, collecting its responses in emission order.
   [output] is called under the connection lock, so the ref is safe
   even though the collector thread does some of the calls. *)
let run_script svc lines =
  let out = ref [] in
  let n =
    Fleet.Serve.serve_connection svc ~input:(make_input lines)
      ~output:(fun l -> out := l :: !out)
      ()
  in
  n, List.rev !out

(* One connection's whole life on a fresh two-worker service. *)
let serve_once lines =
  let svc = Fleet.Serve.create ~jobs:2 ~resolver () in
  Fun.protect
    ~finally:(fun () -> Fleet.Serve.shutdown svc)
    (fun () -> run_script svc lines)

let field line k =
  match Forensics.Jsonl.parse_line line with
  | Error e -> Alcotest.failf "unparseable response %s: %s" line e
  | Ok fields -> List.assoc_opt k fields

let check_str line k expected =
  match field line k with
  | Some (Forensics.Jsonl.Str s) -> Alcotest.(check string) k expected s
  | _ -> Alcotest.failf "missing string field %S in %s" k line

(* ------------------------------------------------------------------ *)
(* watchdog: a wedged worker is timed out and replaced; the fleet
   keeps answering on the same slot                                    *)

let watchdog_case =
  Alcotest.test_case "wedged worker times out, respawns, fleet answers"
    `Quick (fun () ->
      let eng = Hth.Engine.create ~keep_events:false () in
      (* deadline-less default 0.25s catches the slow session; the
         verification job carries its own generous deadline *)
      let sup =
        Fleet.Supervisor.create ~deadline:0.25 ~jobs:1 [ "default", eng ]
      in
      (* ~14M-tick workload: far past the deadline on any host *)
      let slow = Guest.Perf_workload.scenario ~iters:20_000 in
      let j_slow = Fleet.Executor.job slow.sc_setup in
      (match Fleet.Supervisor.submit sup j_slow with
       | Fleet.Supervisor.Admitted s -> Alcotest.(check int) "seq" 0 s
       | _ -> Alcotest.fail "slow job refused");
      (match Fleet.Supervisor.next sup with
       | Some { o_result = Error (Hth.Error.Timeout { seconds }); _ } ->
         Alcotest.(check bool) "deadline echoed" true (seconds > 0.)
       | Some { o_result = Error e; _ } ->
         Alcotest.failf "expected timeout, got %s" (Hth.Error.to_string e)
       | Some { o_result = Ok _; _ } ->
         Alcotest.fail "slow job finished under the deadline?"
       | None -> Alcotest.fail "executor closed unexpectedly");
      (* the single worker slot was wedged; a fresh session can only
         succeed if the watchdog actually replaced the domain *)
      let j_fast =
        Fleet.Executor.job ~deadline:60. (find "pma").sc_setup
      in
      (match Fleet.Supervisor.submit sup j_fast with
       | Fleet.Supervisor.Admitted _ -> ()
       | _ -> Alcotest.fail "fast job refused");
      (match Fleet.Supervisor.next sup with
       | Some { o_result = Ok _; _ } -> ()
       | Some { o_result = Error e; _ } ->
         Alcotest.failf "post-respawn session failed: %s"
           (Hth.Error.to_string e)
       | None -> Alcotest.fail "executor closed unexpectedly");
      let h = Fleet.Supervisor.health sup in
      Alcotest.(check bool) "timeout counted" true
        (h.Fleet.Supervisor.h_timeouts >= 1);
      Alcotest.(check bool) "respawn counted" true
        (h.Fleet.Supervisor.h_stats.Fleet.Pool.respawns >= 1);
      Alcotest.(check int) "nothing left in flight" 0
        h.Fleet.Supervisor.h_inflight;
      Fleet.Supervisor.shutdown sup)

(* ------------------------------------------------------------------ *)
(* admission: the global cap answers Overloaded, deterministically     *)

let overload_case =
  Alcotest.test_case "global in-flight cap refuses, then recovers"
    `Quick (fun () ->
      let eng = Hth.Engine.create ~keep_events:false () in
      let sup =
        Fleet.Supervisor.create ~max_inflight:2 ~jobs:1 [ "default", eng ]
      in
      let j () = Fleet.Executor.job (find "pma").sc_setup in
      let admitted x =
        match x with Fleet.Supervisor.Admitted s -> s | _ -> -1
      in
      Alcotest.(check int) "first admitted" 0
        (admitted (Fleet.Supervisor.submit sup (j ())));
      Alcotest.(check int) "second admitted" 1
        (admitted (Fleet.Supervisor.submit sup (j ())));
      (* in-flight = admitted and unconsumed, so the cap is exact and
         timing-free *)
      (match Fleet.Supervisor.submit sup (j ()) with
       | Fleet.Supervisor.Overloaded -> ()
       | _ -> Alcotest.fail "expected Overloaded at the cap");
      ignore (Fleet.Supervisor.next sup);
      Alcotest.(check int) "slot freed after release" 2
        (admitted (Fleet.Supervisor.submit sup (j ())));
      ignore (Fleet.Supervisor.next sup);
      ignore (Fleet.Supervisor.next sup);
      Fleet.Supervisor.begin_drain sup;
      (match Fleet.Supervisor.submit sup (j ()) with
       | Fleet.Supervisor.Draining -> ()
       | _ -> Alcotest.fail "expected Draining after begin_drain");
      Fleet.Supervisor.await_drain sup;
      Fleet.Supervisor.shutdown sup)

let closed_case =
  Alcotest.test_case "submit after shutdown answers Draining, never raises"
    `Quick (fun () ->
      let eng = Hth.Engine.create ~keep_events:false () in
      let sup = Fleet.Supervisor.create ~jobs:1 [ "default", eng ] in
      Fleet.Supervisor.shutdown sup;
      let j = Fleet.Executor.job (find "pma").sc_setup in
      (match Fleet.Supervisor.submit sup j with
       | Fleet.Supervisor.Draining -> ()
       | _ -> Alcotest.fail "expected Draining after shutdown");
      Alcotest.(check bool) "nothing to release" true
        (Option.is_none (Fleet.Supervisor.next sup)))

(* drain ends the release stream on its own: once every admitted
   outcome is out, [next] answers None — no shutdown needed *)
let drained_next_case =
  Alcotest.test_case "drained fleet: next ends without shutdown" `Quick
    (fun () ->
      let eng = Hth.Engine.create ~keep_events:false () in
      let sup = Fleet.Supervisor.create ~jobs:1 [ "default", eng ] in
      let j = Fleet.Executor.job (find "pma").sc_setup in
      (match Fleet.Supervisor.submit sup j with
       | Fleet.Supervisor.Admitted 0 -> ()
       | _ -> Alcotest.fail "expected admission at seq 0");
      Fleet.Supervisor.begin_drain sup;
      (* admitted before the drain, so still released *)
      (match Fleet.Supervisor.next sup with
       | Some { o_seq = 0; o_result = Ok _; _ } -> ()
       | _ -> Alcotest.fail "expected the admitted outcome");
      Fleet.Supervisor.await_drain sup;
      (* on its own thread, so a [next] that still waits fails the case
         instead of hanging it *)
      let ended = ref false in
      let th =
        Thread.create
          (fun () -> ended := Option.is_none (Fleet.Supervisor.next sup))
          ()
      in
      let give_up = Unix.gettimeofday () +. 10. in
      while (not !ended) && Unix.gettimeofday () < give_up do
        Unix.sleepf 0.001
      done;
      Alcotest.(check bool) "next answers None once drained" true !ended;
      Thread.join th;
      let h = Fleet.Supervisor.health sup in
      Alcotest.(check bool) "health says draining" true
        h.Fleet.Supervisor.h_draining;
      Alcotest.(check int) "nothing in flight" 0 h.Fleet.Supervisor.h_inflight;
      Alcotest.(check int) "one job executed" 1
        h.Fleet.Supervisor.h_stats.Fleet.Pool.executed;
      Fleet.Supervisor.shutdown sup)

(* ------------------------------------------------------------------ *)
(* serve: a client dying mid-stream leaves the fleet serving others    *)

let disconnect_case =
  Alcotest.test_case "client disconnect mid-stream isolates to its conn"
    `Quick (fun () ->
      let script =
        [ {|{"scenario":"pma","id":"a0"}|};
          {|{"scenario":"grabem","id":"a1"}|};
          {|{"scenario":"ls","id":"a2"}|} ]
      in
      (* serial reference for the surviving connection's bytes *)
      let reference =
        let svc = Fleet.Serve.create ~jobs:1 ~deadline:60. ~resolver () in
        let _, out = run_script svc script in
        Fleet.Serve.shutdown svc;
        out
      in
      let svc = Fleet.Serve.create ~jobs:2 ~deadline:60. ~resolver () in
      (* connection A's transport dies after the first response line *)
      let a_written = ref 0 in
      let a_total = ref (-1) in
      let a_thread =
        Thread.create
          (fun () ->
            a_total :=
              Fleet.Serve.serve_connection svc ~input:(make_input script)
                ~output:(fun _ ->
                  incr a_written;
                  if !a_written > 1 then failwith "client went away")
                ())
          ()
      in
      (* connection B streams the same script concurrently, in full *)
      let _, out_b = run_script svc script in
      Thread.join a_thread;
      Alcotest.(check int) "dead connection still drained" 3 !a_total;
      Alcotest.(check (list string)) "survivor byte-identical to serial"
        reference out_b;
      (* the service is still healthy for a later connection *)
      let _, out_c = run_script svc script in
      Alcotest.(check (list string)) "post-disconnect conn byte-identical"
        reference out_c;
      Fleet.Serve.shutdown svc)

(* ------------------------------------------------------------------ *)
(* two concurrent connections x 5 seeds: each connection's stream is
   byte-identical to serving it alone on a one-worker service          *)

let concurrent_identity_case =
  Alcotest.test_case "2 concurrent connections x 5 seeds vs serial"
    `Quick (fun () ->
      let script_a seed =
        [ Printf.sprintf {|{"scenario":"pma","seed":%d,"id":"a"}|} seed;
          Printf.sprintf
            {|{"scenario":"grabem","policy":"clips","seed":%d}|} seed;
          {|{"scenario":"vixie crontab"}|};
          Printf.sprintf {|{"scenario":"ls","seed":%d}|} seed ]
      in
      let script_b seed =
        [ {|{"scenario":"column"}|};
          Printf.sprintf {|{"scenario":"superforker","seed":%d}|} seed;
          Printf.sprintf {|{"scenario":"procex","seed":%d,"id":"b"}|} seed ]
      in
      let serial = Fleet.Serve.create ~jobs:1 ~deadline:60. ~resolver () in
      let shared = Fleet.Serve.create ~jobs:2 ~deadline:60. ~resolver () in
      List.iter
        (fun seed ->
          let _, ref_a = run_script serial (script_a seed) in
          let _, ref_b = run_script serial (script_b seed) in
          let got_a = ref [] in
          let th =
            Thread.create
              (fun () -> got_a := snd (run_script shared (script_a seed)))
              ()
          in
          let _, got_b = run_script shared (script_b seed) in
          Thread.join th;
          Alcotest.(check (list string))
            (Printf.sprintf "conn A seed %d" seed)
            ref_a !got_a;
          Alcotest.(check (list string))
            (Printf.sprintf "conn B seed %d" seed)
            ref_b got_b)
        [ 1; 2; 3; 4; 5 ];
      Fleet.Serve.shutdown shared;
      Fleet.Serve.shutdown serial)

(* ------------------------------------------------------------------ *)
(* drain: refused work answers shutting_down; ops still answer         *)

let drain_case =
  Alcotest.test_case "draining service answers shutting_down" `Quick
    (fun () ->
      let svc = Fleet.Serve.create ~jobs:1 ~deadline:60. ~resolver () in
      (* prove it worked before the drain *)
      let _, warm = run_script svc [ {|{"scenario":"pma"}|} ] in
      (match warm with
       | [ l ] -> check_str l "status" "ok"
       | _ -> Alcotest.fail "expected one warm response");
      Fleet.Serve.drain svc;
      let n, out =
        run_script svc
          [ {|{"scenario":"pma","id":"late"}|};
            {|{"op":"health"}|};
            {|{"op":"stats"}|} ]
      in
      Alcotest.(check int) "all three answered" 3 n;
      (match out with
       | [ a; b; c ] ->
         check_str a "status" "shutting_down";
         check_str a "id" "late";
         Alcotest.(check bool) "retry false" true
           (field a "retry" = Some (Forensics.Jsonl.Bool false));
         check_str b "status" "health";
         Alcotest.(check bool) "health says draining" true
           (field b "draining" = Some (Forensics.Jsonl.Bool true));
         check_str c "status" "stats";
         (match field c "requests" with
          | Some (Forensics.Jsonl.Int n) ->
            Alcotest.(check bool) "stats counted the warm request" true
              (n >= 1)
          | _ -> Alcotest.fail "stats response lacks requests")
       | _ -> Alcotest.fail "expected three responses");
      Fleet.Serve.shutdown svc)

(* ------------------------------------------------------------------ *)
(* default tick budget: budget-less requests degrade deterministically *)

let default_budget_case =
  Alcotest.test_case "default tick budget caps budget-less requests"
    `Quick (fun () ->
      let svc =
        Fleet.Serve.create ~jobs:1 ~deadline:60. ~default_ticks:200
          ~resolver ()
      in
      let _, out = run_script svc [ {|{"scenario":"superforker"}|} ] in
      Fleet.Serve.shutdown svc;
      (match out with
       | [ l ] ->
         check_str l "status" "ok";
         Alcotest.(check bool) "session degraded by the default budget"
           true
           (field l "degraded" = Some (Forensics.Jsonl.Bool true))
       | _ -> Alcotest.fail "expected one response");
      (* an explicit budget wins over the default *)
      let svc =
        Fleet.Serve.create ~jobs:1 ~deadline:60. ~default_ticks:200
          ~resolver ()
      in
      let _, out =
        run_script svc
          [ {|{"scenario":"superforker","budget":"ticks=2000000"}|} ]
      in
      Fleet.Serve.shutdown svc;
      match out with
      | [ l ] ->
        check_str l "status" "ok";
        Alcotest.(check bool) "explicit budget not overridden" true
          (field l "degraded" = Some (Forensics.Jsonl.Bool false))
      | _ -> Alcotest.fail "expected one response")

(* ------------------------------------------------------------------ *)
(* store_query: the fleet-forensics surface served over the protocol   *)

let check_int_at_least line k floor =
  match field line k with
  | Some (Forensics.Jsonl.Int n) ->
    Alcotest.(check bool) (Printf.sprintf "%s >= %d" k floor) true (n >= floor)
  | _ -> Alcotest.failf "missing int field %S in %s" k line

let store_query_case =
  Alcotest.test_case "store_query answers fleet queries over the warehouse"
    `Quick (fun () ->
      (* without a warehouse the op answers, but flags itself off *)
      let svc = Fleet.Serve.create ~jobs:1 ~deadline:60. ~resolver () in
      let _, out = run_script svc [ {|{"op":"store_query","id":"q"}|} ] in
      Fleet.Serve.shutdown svc;
      (match out with
       | [ l ] ->
         check_str l "status" "store_query";
         Alcotest.(check bool) "disabled without a warehouse" true
           (field l "enabled" = Some (Forensics.Jsonl.Bool false))
       | _ -> Alcotest.fail "expected one response");
      (* populate a store through the service, then query it.  The
         queries go on a second connection: serve_connection returning
         means every admitted run is already appended (durable before
         visible), so the second connection's answers are
         deterministic.  The store's directory is removed on every exit
         path. *)
      Test_store.with_dir "hth-serve-squery" @@ fun dir ->
      let wh =
        match Store.Warehouse.open_ dir with
        | Ok wh -> wh
        | Error e -> Alcotest.failf "open_ %s: %s" dir (Hth.Error.to_string e)
      in
      let svc = Fleet.Serve.create ~jobs:2 ~deadline:60. ~store:wh ~resolver () in
      let _, runs =
        run_script svc
          [ {|{"scenario":"pma","id":"r0"}|};
            {|{"scenario":"grabem","id":"r1"}|} ]
      in
      List.iter (fun l -> check_str l "status" "ok") runs;
      let n, out =
        run_script svc
          [ {|{"op":"store_query","id":"q0"}|};
            {|{"op":"store_query","kind":"profile","limit":3,"id":"q1"}|};
            {|{"op":"store_query","kind":"diff","run":"pma@0","id":"q2"}|};
            {|{"op":"store_query","kind":"diff","id":"q3"}|};
            {|{"op":"store_query","kind":"bogus","id":"q4"}|};
            {|{"op":"store_query","scenario":"pma","id":"q5"}|} ]
      in
      Fleet.Serve.shutdown svc;
      Store.Warehouse.close wh;
      Alcotest.(check int) "all six answered" 6 n;
      match out with
      | [ q0; q1; q2; q3; q4; q5 ] ->
        check_str q0 "status" "store_query";
        check_str q0 "kind" "query";
        (match field q0 "runs" with
         | Some (Forensics.Jsonl.Int n) ->
           Alcotest.(check int) "unfiltered query sees both runs" 2 n
         | _ -> Alcotest.fail "q0 lacks runs");
        check_str q1 "kind" "profile";
        check_int_at_least q1 "blocks" 1;
        (match field q1 "profile" with
         | Some (Forensics.Jsonl.Str s) ->
           Alcotest.(check bool) "profile respects the row limit" true
             (List.length (String.split_on_char '\n' s) <= 3)
         | _ -> Alcotest.fail "q1 lacks profile rows");
        check_str q2 "kind" "diff";
        check_int_at_least q2 "compared" 1;
        check_str q3 "status" "bad_request";
        check_str q4 "status" "bad_request";
        check_str q5 "kind" "query";
        (match field q5 "hits" with
         | Some (Forensics.Jsonl.Str s) ->
           Alcotest.(check bool) "scenario filter names the pma run" true
             (Astring.String.is_infix ~affix:"pma@0" s)
         | _ -> Alcotest.fail "q5 lacks hits")
      | _ -> Alcotest.fail "expected six responses")

let suite =
  [ watchdog_case; overload_case; closed_case; disconnect_case;
    concurrent_identity_case; drain_case; default_budget_case;
    store_query_case; drained_next_case ]
