(* Chaos harness: the corpus under seeded fault injection and resource
   budgets.

   Three guarantees are checked (ISSUE 3's chaos gate):
   - no exception escapes [Engine.run_outcome] under any fault plan —
     failures come back as typed [Hth.Error.t] values;
   - faulted runs are deterministic: the same (scenario, seed) produces
     a byte-identical JSONL trace;
   - degradation is monotone: a budgeted (over-tainting) run may add
     warnings relative to the unbudgeted run but never loses one, and
     the result is flagged degraded whenever the budget actually
     tripped.

   The quick suite covers a representative scenario slice; setting
   CHAOS_CORPUS=full (the scripts/check.sh gate) widens the no-escape
   and determinism checks to the whole corpus. *)

let seeds = [ 1; 2; 3; 7; 42 ]

let quick_names =
  [ "pma"; "grabem"; "superforker"; "text download"; "vixie crontab";
    "stealth dropper";
    (* trigger-gated payloads: faults on the trigger channel must
       degrade or delay the arming, never escape or flip nondetermin-
       istically *)
    "sleeper daemon triggered"; "worm pair triggered";
    "update client triggered" ]

let full_corpus () =
  match Sys.getenv_opt "CHAOS_CORPUS" with
  | Some "full" -> true
  | Some _ | None -> false

let scenarios () =
  if full_corpus () then Guest.Corpus.all
  else
    List.filter_map Guest.Corpus.find quick_names

(* ------------------------------------------------------------------ *)
(* No escaped exceptions                                               *)

let test_no_escape () =
  List.iter
    (fun (sc : Guest.Scenario.t) ->
      List.iter
        (fun seed ->
          match
            Hth.Engine.run_outcome (Hth.Engine.create ())
              ~fault:(Osim.Fault.seeded seed) sc.sc_setup
          with
          | Ok _ -> ()
          | Error e ->
            (* a typed error is an acceptable isolated outcome; an
               exception here would fail the test *)
            Fmt.epr "%s seed %d: %a@." sc.sc_name seed Hth.Error.pp e
          | exception e ->
            Alcotest.failf "%s seed %d: escaped exception %s" sc.sc_name
              seed (Printexc.to_string e))
        seeds)
    (scenarios ())

(* ------------------------------------------------------------------ *)
(* Trace determinism under faults                                      *)

let traced_run sc seed =
  let buf = Buffer.create 4096 in
  Obs.Trace.to_buffer buf;
  Fun.protect ~finally:Obs.Trace.disable (fun () ->
      ignore
        (Hth.Engine.run_outcome (Hth.Engine.create ())
           ~fault:(Osim.Fault.seeded seed) (sc : Guest.Scenario.t).sc_setup));
  Buffer.contents buf

let test_trace_deterministic () =
  let scs =
    if full_corpus () then Guest.Corpus.all
    else List.filter_map Guest.Corpus.find [ "pma"; "grabem" ]
  in
  List.iter
    (fun (sc : Guest.Scenario.t) ->
      List.iter
        (fun seed ->
          let a = traced_run sc seed and b = traced_run sc seed in
          Alcotest.(check bool)
            (Fmt.str "%s seed %d: identical traces for identical seeds"
               sc.sc_name seed)
            true (String.equal a b);
          Alcotest.(check bool)
            (Fmt.str "%s seed %d: trace non-empty" sc.sc_name seed)
            false
            (String.length a = 0))
        seeds)
    scs

(* ------------------------------------------------------------------ *)
(* Degradation is monotone                                             *)

let warning_keys (r : Hth.Engine.result) =
  (* compare (rule, severity) pairs: over-tainting widens the tag sets
     rendered inside warning messages, so message text is not stable
     across degraded runs — the rule that fired and its severity are *)
  List.sort_uniq compare
    (List.map
       (fun (w : Secpert.Warning.t) -> w.rule, w.severity)
       r.warnings)

let budgeted_setup name pages =
  match Guest.Corpus.find name with
  | None -> Alcotest.failf "unknown scenario %s" name
  | Some sc ->
    let exact =
      match Hth.Engine.run_outcome (Hth.Engine.create ()) sc.sc_setup with
      | Ok r -> r
      | Error e -> Alcotest.failf "%s unbudgeted: %a" name Hth.Error.pp e
    in
    let budgets =
      { Hth.Engine.no_budgets with b_shadow_pages = Some pages }
    in
    let degraded =
      match
        Hth.Engine.run_outcome (Hth.Engine.create ()) ~budgets sc.sc_setup
      with
      | Ok r -> r
      | Error e -> Alcotest.failf "%s budgeted: %a" name Hth.Error.pp e
    in
    exact, degraded

let monotone_names =
  [ "pma"; "grabem"; "ElmExploit"; "text download"; "stealth dropper";
    "env exfiltration" ]

let prop_degradation_monotone =
  QCheck.Test.make ~count:12 ~name:"budgeted run never loses a warning"
    QCheck.(pair (int_range 0 (List.length monotone_names - 1))
              (int_range 1 6))
    (fun (i, pages) ->
      let name = List.nth monotone_names i in
      let exact, degraded = budgeted_setup name pages in
      let ek = warning_keys exact and dk = warning_keys degraded in
      List.for_all (fun k -> List.mem k dk) ek
      ||
      QCheck.Test.fail_reportf
        "%s pages=%d lost warnings: exact %d keys, degraded %d keys" name
        pages (List.length ek) (List.length dk))

let test_degraded_flagged () =
  (* a 1-page budget must actually trip on a dataflow-heavy scenario,
     and the trip must surface in [result.degraded] *)
  let _, degraded = budgeted_setup "pma" 1 in
  Alcotest.(check bool) "degraded flagged" true (degraded.degraded <> []);
  let exact, _ = budgeted_setup "pma" 1 in
  Alcotest.(check bool) "unbudgeted run not flagged" true
    (exact.degraded = [])

(* ------------------------------------------------------------------ *)
(* Flag parsing                                                        *)

let check_err name r =
  match r with
  | Error (_ : string) -> ()
  | Ok _ -> Alcotest.failf "%s: expected a parse error" name

let test_fault_parse_errors () =
  check_err "no kind" (Osim.Fault.parse "SYS_open");
  check_err "bad kind" (Osim.Fault.parse "SYS_open=bogus");
  check_err "empty call" (Osim.Fault.parse "=enoent");
  check_err "bad occurrence" (Osim.Fault.parse "SYS_open#0=enoent");
  check_err "non-numeric occurrence" (Osim.Fault.parse "SYS_open#x=eio");
  check_err "empty resource" (Osim.Fault.parse "SYS_open@=eio");
  check_err "empty plan" (Osim.Fault.parse "");
  (match Osim.Fault.parse "SYS_open@/etc/passwd#2=enoent,*=short" with
   | Ok p ->
     Alcotest.(check string) "round trip"
       "SYS_open@/etc/passwd#2=enoent,*=short" (Osim.Fault.to_string p)
   | Error e -> Alcotest.fail e)

let test_budget_parse_errors () =
  check_err "no =" (Hth.Engine.parse_budgets [ "ticks" ]);
  check_err "bad key" (Hth.Engine.parse_budgets [ "cpu=5" ]);
  check_err "bad value" (Hth.Engine.parse_budgets [ "ticks=abc" ]);
  check_err "no wm key" (Hth.Engine.parse_budgets [ "wm=10" ]);
  check_err "zero" (Hth.Engine.parse_budgets [ "warnings=0" ]);
  check_err "negative" (Hth.Engine.parse_budgets [ "ticks=-3" ]);
  match Hth.Engine.parse_budgets [ "ticks=100"; "shadow-pages=4" ] with
  | Ok b ->
    Alcotest.(check (option int)) "ticks" (Some 100) b.b_ticks;
    Alcotest.(check (option int)) "pages" (Some 4) b.b_shadow_pages;
    Alcotest.(check (option int)) "warnings unset" None b.b_warnings
  | Error e -> Alcotest.fail e

(* The hth_run converters reject malformed SPECs at the command line;
   replicate that wiring with cmdliner itself so a regression in either
   the parser or the converter plumbing fails here, not in CI scripts. *)
let cmdliner_eval argv =
  let open Cmdliner in
  let fault_conv =
    let parse s = Result.map_error (fun e -> `Msg e) (Osim.Fault.parse s) in
    Arg.conv (parse, fun ppf p -> Fmt.string ppf (Osim.Fault.to_string p))
  in
  let budget_conv =
    let parse s =
      match Hth.Engine.parse_budgets [ s ] with
      | Ok _ -> Ok s
      | Error e -> Error (`Msg e)
    in
    Arg.conv (parse, Fmt.string)
  in
  let fault = Arg.(value & opt (some fault_conv) None & info [ "fault-plan" ])
  and budgets = Arg.(value & opt_all budget_conv [] & info [ "budget" ]) in
  let term = Term.(const (fun _ _ -> ()) $ fault $ budgets) in
  Cmd.eval_value ~argv:(Array.of_list ("chaos" :: argv)) (Cmd.v (Cmd.info "chaos") term)

let test_cmdliner_parse_errors () =
  let ok = function Ok (`Ok ()) -> true | _ -> false in
  Alcotest.(check bool) "good plan accepted" true
    (ok (cmdliner_eval [ "--fault-plan"; "SYS_open=enoent" ]));
  Alcotest.(check bool) "good budget accepted" true
    (ok (cmdliner_eval [ "--budget"; "warnings=10"; "--budget"; "ticks=5" ]));
  (match cmdliner_eval [ "--fault-plan"; "SYS_open=bogus" ] with
   | Error `Parse -> ()
   | _ -> Alcotest.fail "bad fault kind must be a cmdliner parse error");
  (match cmdliner_eval [ "--budget"; "ticks=abc" ] with
   | Error `Parse -> ()
   | _ -> Alcotest.fail "bad budget must be a cmdliner parse error")

let suite =
  [ Alcotest.test_case "corpus x seeds: no escaped exception" `Quick
      test_no_escape;
    Alcotest.test_case "faulted traces deterministic" `Quick
      test_trace_deterministic;
    QCheck_alcotest.to_alcotest prop_degradation_monotone;
    Alcotest.test_case "degraded runs are flagged" `Quick
      test_degraded_flagged;
    Alcotest.test_case "fault plan parse errors" `Quick
      test_fault_parse_errors;
    Alcotest.test_case "budget parse errors" `Quick test_budget_parse_errors;
    Alcotest.test_case "cmdliner rejects malformed flags" `Quick
      test_cmdliner_parse_errors ]
