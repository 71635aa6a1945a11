(* Engine-reuse determinism.

   The contract from DESIGN.md §14: a session run through a warm,
   long-lived [Hth.Engine.t] must be observationally identical to a
   cold one on a fresh engine — byte-identical JSONL trace, identical
   warnings and verdict — no matter how many sessions the engine has
   already run.  One shared engine instance runs EVERY golden scenario
   below, each twice, so its one shared artifact, the compiled policy,
   is exercised in its warm state.

   The loader cases pin the kernel as the one place images are linked:
   monitored and unmonitored runs load the same image, and a link
   failure is a typed load error at spawn and ENOEXEC at exec. *)

let golden_scenarios =
  [ "ElmExploit"; "nlspath"; "procex"; "grabem"; "vixie crontab"; "pma";
    "superforker"; "ls"; "column" ]

let find name =
  match Guest.Corpus.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "scenario %S missing from corpus" name

(* Run one session with the JSONL sink captured; restore the no-op
   sink afterwards.  Returns the trace and the session result. *)
let capture run (sc : Guest.Scenario.t) =
  let buf = Buffer.create 4096 in
  Obs.Trace.to_buffer buf;
  let r =
    Fun.protect ~finally:Obs.Trace.disable (fun () -> run sc.sc_setup)
  in
  Buffer.contents buf, r

let warning_strings (r : Hth.Engine.result) =
  List.map Secpert.Warning.to_string r.warnings

let check_same_trace msg ~expected ~actual =
  match Forensics.Tdiff.first_divergence ~expected ~actual with
  | None -> ()
  | Some d ->
    Alcotest.failf "%s@.%s" msg (Forensics.Tdiff.report ~name:msg d)

(* The one engine shared by every scenario case in this suite. *)
let shared = lazy (Hth.Engine.create ())

let scenario_case name =
  Alcotest.test_case name `Quick (fun () ->
      let sc = find name in
      let eng = Lazy.force shared in
      let cold_trace, cold =
        capture (Hth.Engine.run (Hth.Engine.create ())) sc
      in
      let warm1_trace, warm1 = capture (Hth.Engine.run eng) sc in
      let warm2_trace, warm2 = capture (Hth.Engine.run eng) sc in
      check_same_trace (name ^ ": warm engine vs cold session")
        ~expected:cold_trace ~actual:warm1_trace;
      check_same_trace (name ^ ": second warm run vs first")
        ~expected:warm1_trace ~actual:warm2_trace;
      Alcotest.(check (list string))
        (name ^ ": warnings") (warning_strings cold) (warning_strings warm1);
      Alcotest.(check (list string))
        (name ^ ": warnings, second run")
        (warning_strings cold) (warning_strings warm2);
      Alcotest.(check bool)
        (name ^ ": verdict") true
        (cold.max_severity = warm1.max_severity
        && cold.max_severity = warm2.max_severity))

(* [keep_events:false] drops the event accumulator only: the event
   stream no longer materializes, but warnings, verdict and the trace
   are untouched (the monitor writes each event's flow line itself). *)
let no_events_case =
  Alcotest.test_case "keep_events:false" `Quick (fun () ->
      let sc = find "pma" in
      let cold_trace, cold =
        capture (Hth.Engine.run (Hth.Engine.create ())) sc
      in
      let eng = Hth.Engine.create ~keep_events:false () in
      let trace, r = capture (Hth.Engine.run eng) sc in
      Alcotest.(check int) "no events accumulated" 0 (List.length r.events);
      Alcotest.(check bool) "events were still dispatched" true
        (r.event_count > 0);
      Alcotest.(check (list string)) "warnings" (warning_strings cold)
        (warning_strings r);
      check_same_trace "trace unchanged without accumulator"
        ~expected:cold_trace ~actual:trace)

(* ------------------------------------------------------------------ *)
(* One event's path                                                    *)

(* Under auto-kill, grabem's write to .exrc% is judged HIGH and killed.
   The monitor writes the event's "flow" line at the step its meta was
   stamped with, the judge's "rule" and "warning" lines follow it, the
   evidence cites that step, and the write never runs: no "syscall"
   line follows, and the event is counted although the call is not. *)
let killed_event_case =
  Alcotest.test_case "killed event: flow, rule, warning, no syscall" `Quick
    (fun () ->
      let eng = Hth.Engine.create ~auto_kill:Secpert.Severity.High () in
      let trace, r = capture (Hth.Engine.run eng) (find "grabem") in
      let lines =
        String.split_on_char '\n' trace
        |> List.filter (fun l -> l <> "")
        |> List.map (fun l ->
               match Forensics.Jsonl.parse_line l with
               | Ok fields -> fields
               | Error e -> Alcotest.failf "trace line %S: %s" l e)
      in
      let str k f =
        match List.assoc_opt k f with Some (Obs.Str s) -> s | _ -> ""
      in
      let int k f =
        match List.assoc_opt k f with Some (Obs.Int n) -> n | _ -> -1
      in
      let rec from_killed = function
        | f :: rest when str "ev" f = "flow" && str "target_kind" f = "FILE"
          -> f, rest
        | _ :: rest -> from_killed rest
        | [] -> Alcotest.fail "no flow line for the write to .exrc%"
      in
      let flow, rest = from_killed lines in
      Alcotest.(check string) "killed call" "SYS_write" (str "call" flow);
      Alcotest.(check string) "its target" ".exrc%" (str "target_name" flow);
      Alcotest.(check int) "flow line's step" 17 (int "step" flow);
      (match rest with
       | rule :: warning :: rest ->
         Alcotest.(check (list string)) "rule then warning follow"
           [ "rule"; "warning" ] [ str "ev" rule; str "ev" warning ];
         Alcotest.(check string) "rule" "check_write" (str "name" rule);
         Alcotest.(check string) "severity" "HIGH" (str "severity" warning);
         Alcotest.(check string) "evidence cites the flow line"
           "data_transfer#5@17" (str "ev_facts" warning);
         Alcotest.(check (list string)) "no syscall line follows" []
           (List.filter_map
              (fun f ->
                if str "ev" f = "syscall" then Some (str "call" f) else None)
              rest)
       | _ -> Alcotest.fail "the flow line must be followed by two more");
      let stat n = Option.value (List.assoc_opt n r.stats) ~default:0 in
      Alcotest.(check (pair int int)) "transfer events vs SYS_write calls"
        (4, 3)
        (stat "harrier.events.transfer", stat "osim.syscalls.SYS_write");
      Alcotest.(check bool) "process killed" true
        (List.exists
           (fun (_, _, st) ->
             match (st : Osim.Process.run_state) with
             | Killed _ -> true
             | _ -> false)
           r.os_report.Osim.Kernel.rep_final))

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)

(* A setup listing [/bin/x] twice installs both; the file system keeps
   the later one, and both run paths load from it. *)
let duplicate_path_case =
  Alcotest.test_case "duplicate path: monitored = unmonitored" `Quick
    (fun () ->
      let s =
        Hth.Engine.setup ~main:"/bin/x"
          ~programs:
            [ Guest.Common.trivial ~output:"A" "/bin/x";
              Guest.Common.trivial ~output:"B" "/bin/x" ]
          ()
      in
      let monitored = Hth.Engine.run (Hth.Engine.create ()) s in
      let unmonitored = Hth.Engine.run_unmonitored s in
      Alcotest.(check string) "same console"
        unmonitored.Osim.Kernel.rep_console
        monitored.os_report.Osim.Kernel.rep_console;
      Alcotest.(check string) "the image installed last runs" "B"
        unmonitored.rep_console)

(* [/bin/a] calls [greet], which [/lib/b] exports. *)
let needy ~a_needs ~b_needs =
  let a =
    let u =
      Asm.create ~needed:a_needs ~path:"/bin/a" ~kind:Binary.Image.Executable
        ~base:Guest.Common.exe_base ()
    in
    Asm.label u "_start";
    Asm.call u "greet";
    Guest.Runtime.sys_exit u 0;
    Asm.hlt u;
    Asm.finalize u
  in
  let b =
    let u =
      Asm.create ~needed:b_needs ~path:"/lib/b"
        ~kind:Binary.Image.Shared_object ~base:Guest.Common.so_base ()
    in
    Asm.label u "greet";
    Asm.export u "greet";
    Guest.Runtime.print u "__msg" "B";
    Asm.ret u;
    Asm.finalize u
  in
  Hth.Engine.setup ~main:"/bin/a" ~programs:[ a; b ] ()

(* The loader walks each path once, so a needed cycle loads and runs
   (an unbounded walk would overflow the stack). *)
let needed_cycle_case name ~a_needs ~b_needs =
  Alcotest.test_case name `Quick (fun () ->
      let s = needy ~a_needs ~b_needs in
      match Hth.Engine.run_outcome (Hth.Engine.create ()) s with
      | Error e -> Alcotest.failf "session failed: %s" (Hth.Error.to_string e)
      | Ok r ->
        Alcotest.(check string) "console" "B"
          r.os_report.Osim.Kernel.rep_console)

let needed_cycle_cases =
  [ needed_cycle_case "needed cycle: two images need each other"
      ~a_needs:[ "/lib/b" ] ~b_needs:[ "/bin/a" ];
    needed_cycle_case "needed cycle: an image needs itself"
      ~a_needs:[ "/bin/a"; "/lib/b" ] ~b_needs:[] ]

(* An executable importing a routine no image exports. *)
let unresolved path =
  let u =
    Asm.create ~path ~kind:Binary.Image.Executable
      ~base:Guest.Common.exe_base ()
  in
  Asm.label u "_start";
  Asm.call u "no_such_routine";
  Guest.Runtime.sys_exit u 0;
  Asm.hlt u;
  Asm.finalize u

let unresolved_spawn_case =
  Alcotest.test_case "unresolved import at spawn: load failure" `Quick
    (fun () ->
      let s =
        Hth.Engine.setup ~main:"/bin/bad" ~programs:[ unresolved "/bin/bad" ]
          ()
      in
      match Hth.Engine.run_outcome (Hth.Engine.create ()) s with
      | Error (Hth.Error.Load_failure { path; _ }) ->
        Alcotest.(check string) "failing path" "/bin/bad" path
      | Error e ->
        Alcotest.failf "expected a load failure, got %s"
          (Hth.Error.to_string e)
      | Ok _ -> Alcotest.fail "an unresolved import loaded")

(* The exec'ing guest gets ENOEXEC back and exits with it. *)
let unresolved_exec_case =
  Alcotest.test_case "unresolved import at exec: ENOEXEC" `Quick (fun () ->
      let launcher =
        let u =
          Asm.create ~path:"/bin/launch" ~kind:Binary.Image.Executable
            ~base:Guest.Common.exe_base ()
        in
        Guest.Runtime.prologue u;
        Asm.label u "_start";
        Asm.asciz u "prog" "/bin/bad";
        Guest.Runtime.sys_execve u ~path:(Asm.lbl "prog") ();
        Asm.movl u Asm.ebx Asm.eax;
        Asm.movl u Asm.eax (Asm.imm Osim.Abi.sys_exit);
        Asm.int80 u;
        Asm.hlt u;
        Asm.finalize u
      in
      let s =
        Hth.Engine.setup ~main:"/bin/launch"
          ~programs:[ launcher; unresolved "/bin/bad" ]
          ()
      in
      match Hth.Engine.run_outcome (Hth.Engine.create ()) s with
      | Error e ->
        Alcotest.failf "session failed: %s" (Hth.Error.to_string e)
      | Ok r ->
        (match r.os_report.Osim.Kernel.rep_final with
         | [ (_, "/bin/launch", Osim.Process.Exited code) ] ->
           Alcotest.(check int) "exit code is -ENOEXEC"
             (-Osim.Abi.enoexec land 0xFFFFFFFF)
             code
         | _ -> Alcotest.fail "the launcher did not exit on its own"))

(* ------------------------------------------------------------------ *)
(* A failing sink                                                      *)

(* A chunk writer that raises when the engine hands it the session's
   last chunk fails that session with a typed [Crash] in phase
   "trace", and must still leave its domain without a sink: the next,
   untraced session there renders no lines and stamps its events with
   their ordinals, as on a domain that never traced. *)
let failing_sink_case =
  Alcotest.test_case "failing chunk writer: sink removed anyway" `Quick
    (fun () ->
      let eng = Hth.Engine.create () in
      let setup = (find "pma").sc_setup in
      let steps (r : Hth.Engine.result) =
        List.map (fun e -> (Harrier.Events.meta_of e).step) r.events
      in
      Domain.join
      @@ Domain.spawn (fun () ->
             let untraced = steps (Hth.Engine.run eng setup) in
             let dead =
               Obs.Trace.chunk_target
                 ~line:(fun _ _ _ -> ())
                 (fun _ -> failwith "disk full")
             in
             (match Hth.Engine.run_outcome eng ~trace:dead setup with
             | Error (Hth.Error.Crash { phase = "trace"; _ }) -> ()
             | Ok _ -> Alcotest.fail "the writer's failure was lost"
             | Error e ->
               Alcotest.failf "wrong error: %s" (Hth.Error.to_string e)
             | exception e ->
               Alcotest.failf "the session raised %s"
                 (Printexc.to_string e));
             Alcotest.(check bool) "no sink installed" false
               (Obs.Trace.enabled ());
             Alcotest.(check (list int)) "events stamped with ordinals"
               untraced
               (steps (Hth.Engine.run eng setup))))

(* ------------------------------------------------------------------ *)
(* The monitored dense path                                            *)

(* Under the full monitor the dense path allocates next to nothing per
   instruction: on one warm engine, the copy kernel's session at 1000
   iterations allocates at most 0.05 minor words per instruction more
   than at 100.  The slope leaves out what every session allocates
   once (world, images, events, stats). *)
let dense_allocation_case =
  Alcotest.test_case "monitored dense session: minor words per insn"
    `Quick (fun () ->
      let eng = Hth.Engine.create () in
      let session iters =
        let setup = (Guest.Perf_workload.scenario ~iters).sc_setup in
        let before = Gc.minor_words () in
        let r = Hth.Engine.run eng setup in
        (Gc.minor_words () -. before, List.assoc "vm.instructions" r.stats)
      in
      ignore (session 100);
      let short_words, short_insns = session 100 in
      let long_words, long_insns = session 1000 in
      let per_insn =
        (long_words -. short_words) /. float (long_insns - short_insns)
      in
      if per_insn > 0.05 then
        Alcotest.failf
          "%.3f minor words per instruction (%d more instructions, %.0f \
           more words)"
          per_insn (long_insns - short_insns) (long_words -. short_words))

(* A chunk writer that fails on the session's closing profile lines
   (its first chunk holding a "counter" line; at threshold 1 every line
   is its own chunk) fails the session with a typed [Crash] in phase
   "trace", as a failure on the last flush does: [run_outcome ~trace]
   returns its typed error rather than raising. *)
let failing_profile_case =
  Alcotest.test_case "failing chunk writer on counter lines: typed crash"
    `Quick (fun () ->
      let target =
        Obs.Trace.chunk_target ~threshold:1
          ~line:(fun _ _ _ -> ())
          (fun chunk ->
            if Astring.String.is_infix ~affix:{|"ev":"counter"|} chunk then
              failwith "disk full")
      in
      match
        Hth.Engine.run_outcome (Hth.Engine.create ()) ~trace:target
          (find "pma").sc_setup
      with
      | Error (Hth.Error.Crash { phase = "trace"; _ }) -> ()
      | Ok _ -> Alcotest.fail "the writer's failure was lost"
      | Error e -> Alcotest.failf "wrong error: %s" (Hth.Error.to_string e)
      | exception e ->
        Alcotest.failf "the session raised %s" (Printexc.to_string e))

(* The strategy counters ([taint.*], [harrier.shadow.*]) are counted in
   the session's own fields and settled once per session.  Their totals,
   read as [Obs.diff] around [run_outcome] as perfbench reads them, are
   pinned here on every exit path: a completed session, a corpus pass
   (whose exec'd processes replace their monitor records mid-session)
   under both policies, a run truncated by its tick budget and a run
   whose event path raises on its second event (a [Crash]). *)
let strategy_counts f =
  let before = Obs.snapshot () in
  f ();
  Obs.diff ~before ~after:(Obs.snapshot ())
  |> List.filter (fun (n, _) ->
         String.starts_with ~prefix:"taint." n
         || String.starts_with ~prefix:"harrier.shadow." n)

let strategy_totals ~loads ~stores ~memo:(mh, mm) ~intern:(ih, im) =
  [ "harrier.shadow.loads", loads; "harrier.shadow.stores", stores;
    "taint.intern.hits", ih; "taint.intern.misses", im;
    "taint.union_memo.hits", mh; "taint.union_memo.misses", mm ]

let check_counts msg expected f =
  Alcotest.(check (list (pair string int))) msg expected (strategy_counts f)

let strategy_counters_case =
  Alcotest.test_case "strategy counters settled on every exit path" `Quick
    (fun () ->
      let eng = Hth.Engine.create () in
      let copy iters = (Guest.Perf_workload.scenario ~iters).sc_setup in
      check_counts "copy kernel, 100 iterations"
        (strategy_totals ~loads:6407 ~stores:6406 ~memo:(25597, 3)
           ~intern:(2, 4))
        (fun () -> ignore (Hth.Engine.run_outcome eng (copy 100)));
      let corpus = strategy_totals ~loads:1570 ~stores:1492 ~memo:(255, 20)
          ~intern:(2, 291)
      in
      List.iter
        (fun (name, policy) ->
          let eng = Hth.Engine.create ~policy () in
          check_counts ("corpus pass, " ^ name) corpus (fun () ->
              List.iter
                (fun (sc : Guest.Scenario.t) ->
                  ignore (Hth.Engine.run_outcome eng sc.sc_setup))
                Guest.Corpus.all))
        [ "native", Secpert.System.Native; "clips", Secpert.System.Clips ];
      let budgets =
        match Hth.Engine.parse_budgets [ "ticks=4000" ] with
        | Ok b -> b
        | Error msg -> Alcotest.fail msg
      in
      check_counts "truncated by ticks=4000"
        (strategy_totals ~loads:443 ~stores:445 ~memo:(1757, 3)
           ~intern:(2, 4))
        (fun () ->
          match Hth.Engine.run_outcome eng ~budgets (copy 1000) with
          | Ok r when r.degraded <> [] -> ()
          | Ok _ -> Alcotest.fail "the session was not truncated"
          | Error e -> Alcotest.failf "truncated: %s" (Hth.Error.to_string e));
      let flows = ref 0 in
      let raising =
        Obs.Trace.chunk_target
          ~line:(fun _ ev _ ->
            if ev = "flow" then begin
              incr flows;
              if !flows = 2 then failwith "event path"
            end)
          ignore
      in
      check_counts "crash on the second event"
        (strategy_totals ~loads:13 ~stores:19 ~memo:(13, 2) ~intern:(1, 3))
        (fun () ->
          match Hth.Engine.run_outcome eng ~trace:raising (find "pma").sc_setup
          with
          | Error (Hth.Error.Crash { phase = "run"; _ }) -> ()
          | Ok _ -> Alcotest.fail "the raising event path was lost"
          | Error e ->
            Alcotest.failf "wrong error: %s" (Hth.Error.to_string e)))

let suite =
  List.map scenario_case golden_scenarios
  @ [ no_events_case; killed_event_case; failing_sink_case;
      failing_profile_case; duplicate_path_case; unresolved_spawn_case;
      unresolved_exec_case; dense_allocation_case; strategy_counters_case ]
  @ needed_cycle_cases
