(* Unit tests for Secpert: severity, warnings, trust, fact encoding and
   the three policy rule families (driven with synthetic events). *)

open Secpert

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let sp = Taint.Tagset.make_space ()
let tag_of l = Taint.Tagset.of_list sp l
let user = Taint.Source.User_input
let bin_mal = Taint.Source.Binary "/mal"
let bin_libc = Taint.Source.Binary "/lib/libc.so"
let sock_evil = Taint.Source.Socket "evil:80"
let file_a = Taint.Source.File "/a"

let meta ?(time = 100) ?(freq = 3) () : Harrier.Events.meta =
  { pid = 1; time; freq; addr = 0x1000; step = 0 }

let file_res ?(origin = Taint.Tagset.empty) name : Harrier.Events.resource =
  { r_kind = Harrier.Events.R_file; r_name = name; r_origin = origin }

let sock_res ?(origin = Taint.Tagset.empty) name : Harrier.Events.resource =
  { r_kind = Harrier.Events.R_socket; r_name = name; r_origin = origin }

let exec ?(origin = tag_of [ bin_mal ]) ?time ?freq () =
  Harrier.Events.Exec
    { path = file_res ~origin "/bin/payload"; argv = [];
      meta = meta ?time ?freq () }

(* Run one event through a fresh Secpert; return its warnings. *)
let judge ?trust ?auto_kill e =
  let s = System.create ?trust ?auto_kill () in
  let decision = System.handle_event s e in
  decision, System.warnings s

let severities ws = List.map (fun w -> w.Warning.severity) ws

(* ------------------------------------------------------------------ *)
(* Severity / warnings                                                 *)

let test_severity_order () =
  check "low < medium" true (Severity.compare Low Medium < 0);
  check "medium < high" true (Severity.compare Medium High < 0);
  check "ge" true Severity.(High >= Low);
  check_str "label" "MEDIUM" (Severity.label Medium);
  check "of_label round trip" true
    (Severity.of_label "HIGH" = Some Severity.High);
  check "of_label garbage" true (Severity.of_label "SEVERE" = None)

let test_warning_pp_rare () =
  let w =
    Warning.make ~severity:Severity.Medium ~rule:"r" ~pid:1 ~time:5
      ~rare:true "Found something"
  in
  let s = Warning.to_string w in
  check "mentions severity" true
    (Astring.String.is_infix ~affix:"[MEDIUM]" s);
  check "mentions rarity" true
    (Astring.String.is_infix ~affix:"rarely executed" s)

let test_warning_dedup_max () =
  let w sev msg =
    Warning.make ~severity:sev ~rule:"r" ~pid:1 ~time:0 msg
  in
  let ws = [ w Severity.Low "a"; w Severity.Low "a"; w Severity.High "b" ] in
  check_int "dedup" 2 (List.length (Warning.dedup ws));
  check "max severity" true (Warning.max_severity ws = Some Severity.High);
  check "max of empty" true (Warning.max_severity [] = None)

let test_warning_dedup_multiplicity () =
  let w sev msg =
    Warning.make ~severity:sev ~rule:"r" ~pid:1 ~time:0 msg
  in
  let ws =
    [ w Severity.Low "a"; w Severity.High "b"; w Severity.Low "a";
      w Severity.Low "a" ]
  in
  match Warning.dedup ws with
  | [ a; b ] ->
    check_int "first keeps its multiplicity" 3 a.Warning.mult;
    check_int "singleton stays at one" 1 b.Warning.mult;
    check "multiplicity rendered" true
      (Astring.String.is_infix ~affix:"(x3)" (Warning.to_string a));
    check "no (x1) noise" false
      (Astring.String.is_infix ~affix:"(x1)" (Warning.to_string b))
  | other ->
    Alcotest.failf "expected two distinct warnings, got %d"
      (List.length other)

(* ------------------------------------------------------------------ *)
(* Trust                                                               *)

let test_trust () =
  check "libc trusted" true (Trust.is_trusted Trust.default bin_libc);
  check "other binary untrusted" false
    (Trust.is_trusted Trust.default bin_mal);
  check "nothing trusts nothing" false
    (Trust.is_trusted Trust.nothing bin_libc);
  Alcotest.(check (list string))
    "filter_binary" [ "/mal" ]
    (Trust.untrusted_binaries Trust.default (tag_of [ bin_mal; bin_libc ]));
  check "classify filters trusted" true
    (Trust.classify Trust.default (tag_of [ bin_libc; user ])
     = Taint.Origin.From_user)

(* ------------------------------------------------------------------ *)
(* Fact encoding                                                       *)

let test_fact_encoding_exec () =
  let s = System.create () in
  let fact =
    Facts.assert_event (System.engine s) Trust.default (exec ())
  in
  check_str "template" Facts.t_system_call_access fact.template;
  check "call name" true
    (Expert.Fact.slot fact "system_call_name"
     = Some (Expert.Value.Sym "SYS_execve"));
  check "origin type" true
    (Expert.Fact.slot fact "resource_origin_type"
     = Some (Expert.Value.Sym "BINARY"));
  check "origin name" true
    (Expert.Fact.slot fact "resource_origin_name"
     = Some (Expert.Value.Str "/mal"))

let test_fact_encoding_transfer () =
  let s = System.create () in
  let e =
    Harrier.Events.Transfer
      { call = "SYS_write"; data = tag_of [ file_a ]; head = "";
        sources = [ file_a, tag_of [ bin_mal ] ];
        guard = [];
        target = sock_res ~origin:(tag_of [ bin_mal ]) "evil:80";
        via_server = None; len = 4; meta = meta () }
  in
  let fact = Facts.assert_event (System.engine s) Trust.default e in
  (match Expert.Fact.slot fact "sources" with
   | Some v ->
     (match Facts.decode_sources v with
      | [ si ] ->
        check_str "source type" "FILE" si.s_type;
        check_str "source name" "/a" si.s_name;
        check_str "source origin" "BINARY" si.s_origin_type;
        check_str "source origin name" "/mal" si.s_origin_name
      | _ -> Alcotest.fail "decode_sources wrong")
   | None -> Alcotest.fail "sources slot missing");
  check "server nil" true
    (Expert.Fact.slot fact "server" = Some (Expert.Value.Sym "nil"))

let test_origin_values () =
  check "binary wins" true
    (Facts.origin_values Trust.default (tag_of [ bin_mal; user ])
     = ("BINARY", "/mal"));
  check "trusted filtered" true
    (Facts.origin_values Trust.default (tag_of [ bin_libc ])
     = ("UNKNOWN", ""));
  check "empty unknown" true
    (Facts.origin_values Trust.default Taint.Tagset.empty
     = ("UNKNOWN", ""))

(* ------------------------------------------------------------------ *)
(* Execution-flow policy                                               *)

let test_exec_hardcoded_low () =
  let _, ws = judge (exec ()) in
  Alcotest.(check (list string)) "low" [ "LOW" ]
    (List.map Severity.label (severities ws))

let test_exec_socket_high () =
  let _, ws = judge (exec ~origin:(tag_of [ sock_evil ]) ()) in
  Alcotest.(check (list string)) "high" [ "HIGH" ]
    (List.map Severity.label (severities ws))

let test_exec_rare_medium () =
  let _, ws = judge (exec ~time:5_000 ~freq:1 ()) in
  Alcotest.(check (list string)) "medium" [ "MEDIUM" ]
    (List.map Severity.label (severities ws));
  (* rare but early: still low *)
  let _, ws = judge (exec ~time:50 ~freq:1 ()) in
  Alcotest.(check (list string)) "early stays low" [ "LOW" ]
    (List.map Severity.label (severities ws))

let test_exec_user_silent () =
  let _, ws = judge (exec ~origin:(tag_of [ user ]) ()) in
  check_int "no warning" 0 (List.length ws)

let test_exec_trusted_silent () =
  let _, ws = judge (exec ~origin:(tag_of [ bin_libc ]) ()) in
  check_int "libc origin filtered" 0 (List.length ws);
  (* and the ablation: with no trust, it warns *)
  let _, ws = judge ~trust:Trust.nothing (exec ~origin:(tag_of [ bin_libc ]) ())
  in
  check_int "warns when untrusted" 1 (List.length ws)

(* ------------------------------------------------------------------ *)
(* Resource-abuse policy                                               *)

let clone ~total ~recent =
  Harrier.Events.Clone { total; recent; window = 3000; meta = meta () }

let test_clone_thresholds () =
  let _, ws = judge (clone ~total:8 ~recent:1) in
  check_int "at the count threshold: silent" 0 (List.length ws);
  let _, ws = judge (clone ~total:9 ~recent:1) in
  (match severities ws with
   | [ Severity.Low ] -> ()
   | _ -> Alcotest.fail "count over threshold should warn Low");
  let _, ws = judge (clone ~total:2 ~recent:7) in
  (match severities ws with
   | [ Severity.Medium ] -> ()
   | _ -> Alcotest.fail "high rate should warn Medium");
  let _, ws = judge (clone ~total:9 ~recent:7) in
  match severities ws with
  | [ Severity.Medium ] -> ()
  | _ -> Alcotest.fail "rate takes precedence over count"

(* ------------------------------------------------------------------ *)
(* Information-flow policy                                             *)

let transfer ?(sources = []) ?(target = file_res "/t") ?via_server
    ?(data = Taint.Tagset.empty) ?(head = "") () =
  Harrier.Events.Transfer
    { call = "SYS_write"; data; head; sources; guard = []; target;
      via_server; len = 8; meta = meta () }

let flow_sev ?via_server ~src ~src_origin ~target ~target_origin () =
  let e =
    transfer
      ~sources:[ src, src_origin ]
      ~target:(match target with
        | `File -> file_res ~origin:target_origin "/t"
        | `Sock -> sock_res ~origin:target_origin "peer:1")
      ?via_server ()
  in
  let _, ws = judge e in
  Warning.max_severity ws

let hard = tag_of [ bin_mal ]
let user_t = tag_of [ user ]

let test_flow_binary_to_file () =
  check "hardcoded data to hardcoded file is High" true
    (flow_sev ~src:bin_mal ~src_origin:Taint.Tagset.empty ~target:`File
       ~target_origin:hard ()
     = Some Severity.High);
  check "hardcoded data to user file is silent" true
    (flow_sev ~src:bin_mal ~src_origin:Taint.Tagset.empty ~target:`File
       ~target_origin:user_t ()
     = None);
  check "hardcoded data to remotely-named file is High" true
    (flow_sev ~src:bin_mal ~src_origin:Taint.Tagset.empty ~target:`File
       ~target_origin:(tag_of [ sock_evil ]) ()
     = Some Severity.High)

let test_flow_file_matrix () =
  let case src_o tgt_o expect =
    check
      (Fmt.str "file->socket %s/%s" (Taint.Tagset.to_string src_o)
         (Taint.Tagset.to_string tgt_o))
      true
      (flow_sev ~src:file_a ~src_origin:src_o ~target:`Sock
         ~target_origin:tgt_o ()
       = expect)
  in
  case user_t user_t None;
  case user_t hard (Some Severity.Low);
  case hard user_t (Some Severity.Low);
  case hard hard (Some Severity.High)

let test_flow_hardware () =
  check "hardware to hardcoded file is High" true
    (flow_sev ~src:Taint.Source.Hardware ~src_origin:Taint.Tagset.empty
       ~target:`File ~target_origin:hard ()
     = Some Severity.High);
  check "hardware to user file silent" true
    (flow_sev ~src:Taint.Source.Hardware ~src_origin:Taint.Tagset.empty
       ~target:`File ~target_origin:user_t ()
     = None)

let test_flow_user_exfiltration () =
  check "user input to hardcoded socket is Low" true
    (flow_sev ~src:user ~src_origin:Taint.Tagset.empty ~target:`Sock
       ~target_origin:hard ()
     = Some Severity.Low);
  check "user input to user socket silent" true
    (flow_sev ~src:user ~src_origin:Taint.Tagset.empty ~target:`Sock
       ~target_origin:user_t ()
     = None);
  check "user input to file silent" true
    (flow_sev ~src:user ~src_origin:Taint.Tagset.empty ~target:`File
       ~target_origin:hard ()
     = None)

let test_flow_server_escalation () =
  (* the pma pattern: any tracked flow through an accepted connection on
     a hard-coded listening address is High *)
  let server = sock_res ~origin:hard "LocalHost:11111" in
  check "server escalation" true
    (flow_sev ~via_server:server ~src:file_a ~src_origin:user_t
       ~target:`Sock ~target_origin:Taint.Tagset.empty ()
     = Some Severity.High)

let test_flow_trusted_source_skipped () =
  check "libc data is filtered" true
    (flow_sev ~src:bin_libc ~src_origin:Taint.Tagset.empty ~target:`File
       ~target_origin:hard ()
     = None)

let test_flow_stdout_silent () =
  let e =
    transfer
      ~sources:[ bin_mal, Taint.Tagset.empty ]
      ~target:{ r_kind = Harrier.Events.R_stdio; r_name = "STDOUT";
                r_origin = Taint.Tagset.empty }
      ()
  in
  let _, ws = judge e in
  check_int "stdio never warns" 0 (List.length ws)

(* ------------------------------------------------------------------ *)
(* Decisions                                                           *)

let test_auto_kill () =
  let d, _ = judge ~auto_kill:Severity.High (exec ()) in
  check "low does not kill at High" true (d = Osim.Kernel.Allow);
  let d, _ =
    judge ~auto_kill:Severity.High (exec ~origin:(tag_of [ sock_evil ]) ())
  in
  check "high kills at High" true (d = Osim.Kernel.Kill);
  let d, _ = judge ~auto_kill:Severity.Low (exec ()) in
  check "low kills at Low" true (d = Osim.Kernel.Kill);
  let d, _ = judge (exec ()) in
  check "no auto_kill always allows" true (d = Osim.Kernel.Allow)

let test_engine_kept_clean () =
  let s = System.create () in
  ignore (System.handle_event s (exec ()));
  ignore (System.handle_event s (exec ()));
  check_int "event facts are retracted" 0
    (List.length (Expert.Engine.facts (System.engine s)));
  check_int "both events warned" 2 (System.warning_count s)

let suite =
  [ Alcotest.test_case "severity order" `Quick test_severity_order;
    Alcotest.test_case "warning rare rendering" `Quick
      test_warning_pp_rare;
    Alcotest.test_case "warning dedup and max" `Quick
      test_warning_dedup_max;
    Alcotest.test_case "warning dedup multiplicity" `Quick
      test_warning_dedup_multiplicity;
    Alcotest.test_case "trust database" `Quick test_trust;
    Alcotest.test_case "fact encoding: exec" `Quick
      test_fact_encoding_exec;
    Alcotest.test_case "fact encoding: transfer" `Quick
      test_fact_encoding_transfer;
    Alcotest.test_case "origin values" `Quick test_origin_values;
    Alcotest.test_case "execve hardcoded warns Low" `Quick
      test_exec_hardcoded_low;
    Alcotest.test_case "execve from socket warns High" `Quick
      test_exec_socket_high;
    Alcotest.test_case "execve rare+late warns Medium" `Quick
      test_exec_rare_medium;
    Alcotest.test_case "execve user-named is silent" `Quick
      test_exec_user_silent;
    Alcotest.test_case "execve trusted origin is silent" `Quick
      test_exec_trusted_silent;
    Alcotest.test_case "clone thresholds" `Quick test_clone_thresholds;
    Alcotest.test_case "flow: binary to file" `Quick
      test_flow_binary_to_file;
    Alcotest.test_case "flow: name matrix" `Quick test_flow_file_matrix;
    Alcotest.test_case "flow: hardware" `Quick test_flow_hardware;
    Alcotest.test_case "flow: user exfiltration" `Quick
      test_flow_user_exfiltration;
    Alcotest.test_case "flow: server escalation" `Quick
      test_flow_server_escalation;
    Alcotest.test_case "flow: trusted source skipped" `Quick
      test_flow_trusted_source_skipped;
    Alcotest.test_case "flow: stdout silent" `Quick
      test_flow_stdout_silent;
    Alcotest.test_case "auto-kill decisions" `Quick test_auto_kill;
    Alcotest.test_case "engine kept clean" `Quick test_engine_kept_clean ]
