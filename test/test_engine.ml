(* Engine-reuse determinism.

   The contract from DESIGN.md §14: a session run through a warm,
   long-lived [Hth.Engine.t] must be observationally identical to a
   cold one on a fresh engine — byte-identical JSONL trace, identical
   warnings and verdict — no matter how many sessions the engine has
   already run.  One shared engine instance runs EVERY golden scenario
   below, each twice, so the artifact caches (compiled policy, linked
   images, pooled taint spaces and machine memory) are all exercised in
   their warm state. *)

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
  match Hth.Golden.first_divergence ~expected ~actual with
  | None -> ()
  | Some d -> Alcotest.failf "%s@.%s" msg (Hth.Golden.report ~name:msg d)

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

(* [keep_events:false] drops the accumulator sink only: the event
   stream no longer materializes, but warnings, verdict and the trace
   are untouched (the trace sink is an independent subscriber). *)
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

(* A shared taint space changes only the [taint.*] cache statistics:
   warnings and verdicts stay identical, and the trace omits the
   warm-dependent taint counter lines rather than embedding unstable
   numbers. *)
let shared_space_case =
  Alcotest.test_case "share_taint_space" `Quick (fun () ->
      let eng = Hth.Engine.create ~share_taint_space:true () in
      List.iter
        (fun name ->
          let sc = find name in
          let cold = Guest.Scenario.run sc in
          let trace, r = capture (Hth.Engine.run eng) sc in
          Alcotest.(check (list string))
            (name ^ ": warnings") (warning_strings cold) (warning_strings r);
          String.split_on_char '\n' trace
          |> List.iter (fun line ->
                 if Astring.String.is_infix ~affix:"\"taint." line then
                   Alcotest.failf
                     "%s: warm-dependent counter leaked into trace: %s" name
                     line))
        golden_scenarios)

let suite =
  List.map scenario_case golden_scenarios
  @ [ no_events_case; shared_space_case ]
