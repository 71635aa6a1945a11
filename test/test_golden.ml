(* Golden-trace regression harness.

   Each scenario below has a committed JSONL trace under test/golden/
   (regenerate with
     dune exec bin/hth_run.exe -- run <scenario> --trace test/golden/<file>
   — see EXPERIMENTS.md).  Every test runs the scenario TWICE and first
   checks the two live traces are byte-identical: the simulator is
   deterministic and the trace must never depend on wall-clock time,
   hash order or anything else that varies between runs.  Only then is
   the live trace diffed against the golden file, with a line-level
   report on mismatch. *)

let golden_scenarios =
  [ (* the seven real exploits of Table 8 *)
    "ElmExploit"; "nlspath"; "procex"; "grabem"; "vixie crontab"; "pma";
    "superforker";
    (* two trusted programs: goldens also pin the *absence* of events *)
    "ls"; "column";
    (* dormant trojans: every family in all three modes, so the goldens
       pin both the armed behaviour and the quiet modes' silence *)
    "sleeper daemon idle"; "sleeper daemon triggered";
    "sleeper daemon disarmed"; "logic bomb idle"; "logic bomb triggered";
    "logic bomb defused"; "worm pair idle"; "worm pair triggered";
    "worm pair recalled"; "update client idle"; "update client triggered";
    "update client rejected" ]

let golden_file name =
  let sanitized = String.map (fun c -> if c = ' ' then '_' else c) name in
  Filename.concat "golden" (sanitized ^ ".jsonl")

(* Run [sc] with the JSONL sink captured to a buffer; always restore the
   no-op sink. *)
let capture (sc : Guest.Scenario.t) =
  let buf = Buffer.create 4096 in
  Obs.Trace.to_buffer buf;
  Fun.protect ~finally:Obs.Trace.disable (fun () ->
      ignore (Guest.Scenario.run sc));
  Buffer.contents buf

let scenario_case name =
  Alcotest.test_case name `Quick (fun () ->
      let sc =
        match Guest.Corpus.find name with
        | Some sc -> sc
        | None -> Alcotest.failf "scenario %S missing from corpus" name
      in
      let first = capture sc in
      let second = capture sc in
      (match
         Forensics.Tdiff.first_divergence ~expected:first ~actual:second
       with
       | None -> ()
       | Some d ->
         Alcotest.failf "nondeterministic trace!@.%s"
           (Forensics.Tdiff.report ~name:(name ^ " (run 1 vs run 2)") d));
      match
        Forensics.Tdiff.compare_file ~golden:(golden_file name) ~actual:first
      with
      | Ok () -> ()
      | Error msg ->
        Alcotest.failf
          "%s@.(if the change to the trace is intended, regenerate — see \
           EXPERIMENTS.md)"
          msg)

(* ------------------------------------------------------------------ *)
(* The comparator itself                                               *)

let div_opt =
  Alcotest.testable
    (fun ppf -> function
      | None -> Fmt.string ppf "<equal>"
      | Some (d : Forensics.Tdiff.t) ->
        Fmt.pf ppf "line %d: %a / %a" d.line
          Fmt.(option ~none:(any "-") (quote string))
          d.expected
          Fmt.(option ~none:(any "-") (quote string))
          d.actual)
    (fun a b ->
      match a, b with
      | None, None -> true
      | Some (a : Forensics.Tdiff.t), Some b ->
        a.line = b.line && a.expected = b.expected && a.actual = b.actual
      | _ -> false)

let comparator_unit_case =
  Alcotest.test_case "first_divergence" `Quick (fun () ->
      let check msg want ~expected ~actual =
        Alcotest.check div_opt msg want
          (Forensics.Tdiff.first_divergence ~expected ~actual)
      in
      check "equal" None ~expected:"a\nb\n" ~actual:"a\nb\n";
      check "differing middle line"
        (Some
           { Forensics.Tdiff.line = 2; step = None; expected = Some "b";
             actual = Some "x" })
        ~expected:"a\nb\nc\n" ~actual:"a\nx\nc\n";
      check "live trace too short"
        (Some
           { Forensics.Tdiff.line = 2; step = None; expected = Some "b";
             actual = None })
        ~expected:"a\nb\n" ~actual:"a\n";
      check "live trace too long"
        (Some
           { Forensics.Tdiff.line = 3; step = None; expected = None;
             actual = Some "c" })
        ~expected:"a\nb\n" ~actual:"a\nb\nc\n";
      check "same lines, missing trailing newline"
        (Some
           { Forensics.Tdiff.line = 3; step = None; expected = None;
             actual = None })
        ~expected:"a\nb\n" ~actual:"a\nb")

(* Failure path end to end: corrupt a copy of a real golden file in a
   temp dir and check the report names the first divergent line. *)
let comparator_failure_case =
  Alcotest.test_case "comparator reports divergent line" `Quick (fun () ->
      let live =
        In_channel.with_open_bin (golden_file "pma") In_channel.input_all
      in
      let corrupt_line = 3 in
      let corrupted =
        String.split_on_char '\n' live
        |> List.mapi (fun i l ->
               if i = corrupt_line - 1 then l ^ "-CORRUPTED" else l)
        |> String.concat "\n"
      in
      let tmp = Filename.temp_file "hth_golden" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
        (fun () ->
          let oc = open_out_bin tmp in
          output_string oc corrupted;
          close_out oc;
          match Forensics.Tdiff.compare_file ~golden:tmp ~actual:live with
          | Ok () -> Alcotest.fail "corrupted golden compared as equal"
          | Error msg ->
            let has affix = Astring.String.is_infix ~affix msg in
            Alcotest.(check bool)
              (Fmt.str "report names line %d: %s" corrupt_line msg)
              true
              (has (Fmt.str "diverge at line %d" corrupt_line));
            Alcotest.(check bool) "report names the golden file" true
              (has tmp));
      (* an unreadable golden is an error, not a crash *)
      match
        Forensics.Tdiff.compare_file ~golden:(tmp ^ ".does-not-exist")
          ~actual:""
      with
      | Ok () -> Alcotest.fail "missing golden compared as equal"
      | Error msg ->
        Alcotest.(check bool) "missing golden reported" true
          (Astring.String.is_infix ~affix:"unreadable" msg))

let suite =
  comparator_unit_case :: comparator_failure_case
  :: List.map scenario_case golden_scenarios
