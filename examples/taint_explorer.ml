(* Taint explorer: watch provenance move through a program.

   Runs the Table 6 "File->Socket: Hardcoded, Hardcoded" micro-benchmark
   and prints (1) the raw Harrier event stream with full tag sets, and
   (2) the gethostbyname short-circuit at work — the same run with the
   short-circuit disabled mis-attributes the socket address to the hosts
   database.  Finally it runs the Appendix B static Secure Binary check
   on the same image.

     dune exec examples/taint_explorer.exe *)

let find name =
  match Guest.Corpus.find name with
  | Some sc -> sc
  | None -> failwith ("missing corpus scenario: " ^ name)

let connect_events (r : Hth.Engine.result) =
  List.filter_map
    (function
      | Harrier.Events.Access { call = "SYS_connect"; res; _ } ->
        Some (Fmt.str "connect to %s, address origin %a" res.r_name
                Taint.Tagset.pp res.r_origin)
      | _ -> None)
    r.events

let () =
  let sc = find "File->Socket: Hardcoded, Hardcoded" in
  let r = Guest.Scenario.run sc in
  Fmt.pr "=== event stream (%d events) ===@." r.event_count;
  List.iter (fun e -> Fmt.pr "  %a@." Harrier.Events.pp e) r.events;

  Fmt.pr "@.=== gethostbyname short-circuit (Section 7.2) ===@.";
  Fmt.pr "with short-circuit:@.";
  List.iter (Fmt.pr "  %s@.") (connect_events r);
  let no_sc =
    Guest.Scenario.run
      ~monitor_config:
        { Harrier.Monitor.default_config with shortcircuit = [] }
      sc
  in
  Fmt.pr "without short-circuit (address origin degrades to the hosts \
          database):@.";
  List.iter (Fmt.pr "  %s@.") (connect_events no_sc);

  Fmt.pr "@.=== Appendix B: Secure Binary static check ===@.";
  let image =
    List.find
      (fun (img : Binary.Image.t) -> String.equal img.path sc.sc_setup.main)
      sc.sc_setup.programs
  in
  match Hth.Secure_binary.check image with
  | [] -> Fmt.pr "%s is a Secure Binary@." image.path
  | violations ->
    Fmt.pr "%s is NOT a Secure Binary:@." image.path;
    List.iter
      (fun v -> Fmt.pr "  %a@." Hth.Secure_binary.pp_violation v)
      violations
