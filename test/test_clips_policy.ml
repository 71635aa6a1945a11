(* The textual CLIPS policy (Policy_clips) must agree with the native
   OCaml policy on every scenario in the evaluation corpus: same verdict
   (max severity), and the same rule families firing. *)

let check = Alcotest.(check bool)
let sp = Taint.Tagset.make_space ()

let sev_label = function
  | None -> "benign"
  | Some s -> Secpert.Severity.label s

let test_corpus_equivalence () =
  let mismatches =
    List.filter_map
      (fun (sc : Guest.Scenario.t) ->
        let native = Guest.Scenario.run sc in
        let clips =
          Hth.Engine.run
            (Hth.Engine.create ~policy:Secpert.System.Clips ())
            sc.sc_setup
        in
        if native.max_severity = clips.max_severity then None
        else
          Some
            (Fmt.str "%s: native=%s clips=%s" sc.sc_name
               (sev_label native.max_severity)
               (sev_label clips.max_severity)))
      Guest.Corpus.all
  in
  if mismatches <> [] then
    Alcotest.failf "policies disagree:\n%s" (String.concat "\n" mismatches)

let test_clips_policy_loads () =
  (* loading must install every rule without parse errors *)
  let s = Secpert.System.create ~policy:Secpert.System.Clips () in
  ignore (Secpert.System.engine s)

let judge_clips e =
  let s = Secpert.System.create ~policy:Secpert.System.Clips () in
  ignore (Secpert.System.handle_event s e);
  Secpert.System.max_severity s

let meta : Harrier.Events.meta =
  { pid = 1; time = 100; freq = 3; addr = 0; step = 0 }

let test_clips_execve_severities () =
  let exec origin =
    Harrier.Events.Exec
      { path =
          { r_kind = Harrier.Events.R_file; r_name = "/bin/x";
            r_origin = (Taint.Tagset.of_list sp) origin };
        argv = []; meta }
  in
  check "hardcoded low" true
    (judge_clips (exec [ Taint.Source.Binary "/mal" ])
     = Some Secpert.Severity.Low);
  check "socket high" true
    (judge_clips (exec [ Taint.Source.Socket "evil:1" ])
     = Some Secpert.Severity.High);
  check "user silent" true
    (judge_clips (exec [ Taint.Source.User_input ]) = None);
  check "trusted silent" true
    (judge_clips (exec [ Taint.Source.Binary "/lib/libc.so" ]) = None)

let test_clips_rare_escalation () =
  let exec =
    Harrier.Events.Exec
      { path =
          { r_kind = Harrier.Events.R_file; r_name = "/bin/x";
            r_origin = (Taint.Tagset.singleton sp) (Taint.Source.Binary "/mal") };
        argv = [];
        meta = { pid = 1; time = 9_000; freq = 1; addr = 0; step = 0 } }
  in
  check "rare+late medium" true
    (judge_clips exec = Some Secpert.Severity.Medium)

let test_clips_transfer_join () =
  (* the multi-pattern join: per-source facts whose xfer slot holds the
     transfer fact's id, bound by the rule as ?x <- (data_transfer ...) *)
  let transfer =
    Harrier.Events.Transfer
      { call = "SYS_write";
        data = (Taint.Tagset.singleton sp) (Taint.Source.File "/a");
        head = "";
        sources =
          [ Taint.Source.File "/a",
            (Taint.Tagset.singleton sp) (Taint.Source.Binary "/mal") ];
        guard = [];
        target =
          { r_kind = Harrier.Events.R_file; r_name = "/t";
            r_origin = (Taint.Tagset.singleton sp) (Taint.Source.Binary "/mal") };
        via_server = None; len = 4; meta }
  in
  check "both hardcoded high" true
    (judge_clips transfer = Some Secpert.Severity.High)

let test_clips_content_rule () =
  let transfer head =
    Harrier.Events.Transfer
      { call = "SYS_write";
        data = (Taint.Tagset.singleton sp) (Taint.Source.Socket "h:1");
        head;
        sources = [ Taint.Source.Socket "h:1", Taint.Tagset.empty ];
        guard = [];
        target =
          { r_kind = Harrier.Events.R_file; r_name = "/t";
            r_origin = Taint.Tagset.empty };
        via_server = None; len = 4; meta }
  in
  check "MZ caught" true
    (judge_clips (transfer "MZ\x90") = Some Secpert.Severity.High);
  check "text silent" true (judge_clips (transfer "hello") = None)

let suite =
  [ Alcotest.test_case "clips policy loads" `Quick test_clips_policy_loads;
    Alcotest.test_case "clips execve severities" `Quick
      test_clips_execve_severities;
    Alcotest.test_case "clips rare escalation" `Quick
      test_clips_rare_escalation;
    Alcotest.test_case "clips transfer join" `Quick
      test_clips_transfer_join;
    Alcotest.test_case "clips content rule" `Quick test_clips_content_rule;
    Alcotest.test_case "corpus equivalence with native policy" `Slow
      test_corpus_equivalence ]
