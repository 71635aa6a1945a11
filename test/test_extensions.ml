(* Tests for the Section 10 future-work features: memory-abuse rules,
   content analysis and cross-session profiles. *)

let sp = Taint.Tagset.make_space ()
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let find name =
  match Guest.Corpus.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "missing scenario %s" name

(* --- memory abuse ---------------------------------------------------- *)

let test_memhog_warns () =
  let r = Guest.Scenario.run (find "memory hog") in
  check "alloc rule fired" true
    (List.exists
       (fun w -> w.Secpert.Warning.rule = "check_alloc")
       r.warnings);
  check "escalates to medium" true
    (r.max_severity = Some Secpert.Severity.Medium)

let test_alloc_thresholds () =
  let judge total =
    let s = Secpert.System.create () in
    ignore
      (Secpert.System.handle_event s
         (Harrier.Events.Alloc
            { requested = 0x70000 + total; total;
              meta = { pid = 1; time = 10; freq = 1; addr = 0; step = 0 } }));
    Secpert.System.max_severity s
  in
  check "small alloc silent" true (judge 0x1000 = None);
  check "medium alloc warns Low" true
    (judge 0x5000 = Some Secpert.Severity.Low);
  check "big alloc warns Medium" true
    (judge 0x20000 = Some Secpert.Severity.Medium)

let test_brk_syscall_semantics () =
  (* brk(0) queries; brk(addr) moves; silly addresses are refused *)
  let exe =
    let open Asm in
    let u = create ~path:"/bin/b" ~kind:Binary.Image.Executable
        ~base:0x1000 ()
    in
    label u "_start";
    movl u eax (imm Osim.Abi.sys_brk);
    movl u ebx (imm 0);
    int80 u;
    movl u esi eax;  (* initial break *)
    addl u esi (imm 0x2000);
    movl u eax (imm Osim.Abi.sys_brk);
    movl u ebx esi;
    int80 u;
    movl u ebx eax;  (* exit code = new break (mod 256 anyway) *)
    subl u ebx esi;  (* 0 if brk returned the requested address *)
    movl u eax (imm Osim.Abi.sys_exit);
    int80 u;
    hlt u;
    finalize u
  in
  let fs = Osim.Fs.create () in
  Osim.Fs.install_image fs exe;
  let k = Osim.Kernel.create ~fs ~net:(Osim.Net.create ()) () in
  (match Osim.Kernel.spawn k ~path:"/bin/b" ~argv:[ "/bin/b" ] with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  let r = Osim.Kernel.run k ~max_ticks:10_000 in
  match r.rep_final with
  | [ (_, _, Osim.Process.Exited 0) ] -> ()
  | _ -> Alcotest.failf "brk semantics wrong: %a" Osim.Kernel.pp_report r

(* --- content analysis ------------------------------------------------- *)

let test_content_rule_fires () =
  let r = Guest.Scenario.run (find "stealth dropper") in
  check "content rule fired" true
    (List.exists
       (fun w -> w.Secpert.Warning.rule = "check_content")
       r.warnings);
  check "no matrix warning (names are user-given)" true
    (not
       (List.exists
          (fun w -> w.Secpert.Warning.rule = "check_write")
          r.warnings))

let test_content_magics () =
  let judge head =
    let s = Secpert.System.create () in
    ignore
      (Secpert.System.handle_event s
         (Harrier.Events.Transfer
            { call = "SYS_write";
              data = Taint.Tagset.singleton sp (Taint.Source.Socket "h:1");
              head;
              sources =
                [ Taint.Source.Socket "h:1", Taint.Tagset.empty ];
              guard = [];
              target =
                { r_kind = Harrier.Events.R_file; r_name = "/f";
                  r_origin = Taint.Tagset.empty };
              via_server = None; len = 10;
              meta = { pid = 1; time = 10; freq = 1; addr = 0; step = 0 } }));
    Secpert.System.max_severity s
  in
  check "MZ magic" true (judge "MZ\x90\x00" = Some Secpert.Severity.High);
  check "ELF magic" true (judge "\x7fELF" = Some Secpert.Severity.High);
  check "shebang" true (judge "#!/bin/sh" = Some Secpert.Severity.High);
  check "plain text silent" true (judge "hello world" = None);
  check "short head silent" true (judge "M" = None)

(* --- environment variables on the initial stack ----------------------- *)

let test_env_exfiltration () =
  let r = Guest.Scenario.run (find "env exfiltration") in
  check "env data is USER_INPUT exfiltrated to hard-coded socket" true
    (r.max_severity = Some Secpert.Severity.Low);
  (* the transferred data must carry the USER_INPUT tag *)
  check "user tag on the wire" true
    (List.exists
       (function
         | Harrier.Events.Transfer { data; target; _ } ->
           target.r_kind = Harrier.Events.R_socket
           && Taint.Tagset.has_user_input data
         | _ -> false)
       r.events)

(* --- CIH-style rare-code reinforcement -------------------------------- *)

let test_cih_rare_note () =
  let r = Guest.Scenario.run (find "CIH date trigger") in
  check "high severity" true (r.max_severity = Some Secpert.Severity.High);
  check "rarely-executed note attached" true
    (List.exists
       (fun (w : Secpert.Warning.t) ->
         w.severity = Secpert.Severity.High && w.rare)
       r.warnings)

(* --- cross-session profiles ------------------------------------------ *)

let test_profile_reduces_false_positives () =
  let sc = find "g++" in
  let profile = Hth.Profile.create () in
  (* first session: warnings are novel *)
  let r1 = Guest.Scenario.run sc in
  check "first run warns" true (r1.warnings <> []);
  check_int "all novel" (List.length r1.warnings)
    (List.length (Hth.Profile.novel profile r1.warnings));
  (* the user accepts the behaviour *)
  Hth.Profile.acknowledge profile r1.warnings;
  (* second session: same warnings, now known *)
  let r2 = Guest.Scenario.run sc in
  check_int "nothing novel" 0
    (List.length (Hth.Profile.novel profile r2.warnings));
  check "effective verdict is benign" true
    (Hth.Profile.effective_verdict profile r2 = Hth.Report.Benign)

let test_profile_still_flags_new_behaviour () =
  let profile = Hth.Profile.create () in
  let r1 = Guest.Scenario.run (find "g++") in
  Hth.Profile.acknowledge profile r1.warnings;
  (* a different program's warnings are NOT covered by g++'s profile *)
  let r2 = Guest.Scenario.run (find "grabem") in
  check "grabem still flagged" true
    (Hth.Profile.effective_verdict profile r2
     = Hth.Report.Suspicious Secpert.Severity.High)

let test_profile_persistence () =
  let profile = Hth.Profile.create () in
  let r = Guest.Scenario.run (find "g++") in
  Hth.Profile.acknowledge profile r.warnings;
  let reloaded = Hth.Profile.of_string (Hth.Profile.to_string profile) in
  check_int "fingerprints survive round trip"
    (Hth.Profile.size profile)
    (Hth.Profile.size reloaded);
  check_int "known after reload" 0
    (List.length (Hth.Profile.novel reloaded r.warnings))

let test_profile_multiline_messages () =
  (* warning messages contain newlines; persistence must survive them *)
  let w =
    Secpert.Warning.make ~severity:Secpert.Severity.Low ~rule:"r" ~pid:1
      ~time:0 "line one\n\tline two"
  in
  let p = Hth.Profile.create () in
  Hth.Profile.acknowledge p [ w ];
  let p' = Hth.Profile.of_string (Hth.Profile.to_string p) in
  check "known across persistence" true (Hth.Profile.known p' w)

let suite =
  [ Alcotest.test_case "memhog warns" `Quick test_memhog_warns;
    Alcotest.test_case "alloc thresholds" `Quick test_alloc_thresholds;
    Alcotest.test_case "brk syscall semantics" `Quick
      test_brk_syscall_semantics;
    Alcotest.test_case "content rule fires" `Quick
      test_content_rule_fires;
    Alcotest.test_case "content magics" `Quick test_content_magics;
    Alcotest.test_case "env exfiltration" `Quick test_env_exfiltration;
    Alcotest.test_case "CIH rare-code note" `Quick test_cih_rare_note;
    Alcotest.test_case "profile reduces false positives" `Quick
      test_profile_reduces_false_positives;
    Alcotest.test_case "profile still flags new behaviour" `Quick
      test_profile_still_flags_new_behaviour;
    Alcotest.test_case "profile persistence" `Quick
      test_profile_persistence;
    Alcotest.test_case "profile multiline messages" `Quick
      test_profile_multiline_messages ]
