(* Ablations for the design choices DESIGN.md calls out:
   - gethostbyname short-circuiting (Section 7.2),
   - the trust database (the ElmExploit miss, Section 8.3.1),
   - data-flow tracking itself,
   - basic-block frequency (the Medium escalation of Table 4). *)

let run_with ?monitor_config ?trust (sc : Guest.Scenario.t) =
  Hth.Engine.run (Hth.Engine.create ?monitor_config ?trust ()) sc.sc_setup

let verdict ?monitor_config ?trust sc =
  Hth.Report.verdict_label
    (Hth.Report.verdict (run_with ?monitor_config ?trust sc))

let find name =
  match Guest.Corpus.find name with
  | Some sc -> sc
  | None -> failwith ("ablate: unknown scenario " ^ name)

let shortcircuit () =
  let off =
    { Harrier.Monitor.default_config with shortcircuit = [] }
  in
  let rows =
    List.map
      (fun name ->
        let sc = find name in
        [ name; verdict sc; verdict ~monitor_config:off sc ])
      [ "File->Socket: Hardcoded, Hardcoded";
        "File->Socket: User input, User Input";
        "Binary->Socket: Hardcoded address";
        "Binary->Socket: User address" ]
  in
  Grid.print
    ~title:
      "Ablation: gethostbyname short-circuit (Section 7.2). Without it, \
       resolved addresses inherit the hosts-database tag and socket-name \
       origins are misclassified"
    ~headers:[ "Scenario"; "short-circuit ON"; "short-circuit OFF" ]
    rows

let trust () =
  let execve_warned (r : Hth.Engine.result) =
    List.exists
      (fun (w : Secpert.Warning.t) -> String.equal w.rule "check_execve")
      r.warnings
  in
  let describe ?trust sc =
    let r = run_with ?trust sc in
    Printf.sprintf "%s, execve warn: %b"
      (Hth.Report.verdict_label (Hth.Report.verdict r))
      (execve_warned r)
  in
  let rows =
    List.map
      (fun name ->
        let sc = find name in
        [ name; describe sc; describe ~trust:Secpert.Trust.nothing sc ])
      [ "ElmExploit"; "make clean"; "ls" ]
  in
  Grid.print
    ~title:
      "Ablation: trust database. With nothing trusted, libc's own \
       hard-coded strings (e.g. \"/bin/sh\" inside system()) raise \
       warnings — the ElmExploit exec is no longer missed"
    ~headers:[ "Scenario"; "default trust"; "trust nothing" ]
    rows

let dataflow () =
  let off =
    { Harrier.Monitor.default_config with track_dataflow = false }
  in
  let rows =
    List.map
      (fun name ->
        let sc = find name in
        [ name; verdict sc; verdict ~monitor_config:off sc ])
      [ "grabem"; "vixie crontab"; "Hardcode"; "superforker" ]
  in
  Grid.print
    ~title:
      "Ablation: data-flow tracking. Without taint, name origins are \
       unknown and only resource-abuse rules can fire"
    ~headers:[ "Scenario"; "dataflow ON"; "dataflow OFF" ]
    rows

let frequency () =
  let off =
    { Harrier.Monitor.default_config with track_frequency = false }
  in
  let rows =
    List.map
      (fun name ->
        let sc = find name in
        [ name; verdict sc; verdict ~monitor_config:off sc ])
      [ "Infrequent execve"; "Hardcode" ]
  in
  Grid.print
    ~title:
      "Ablation: basic-block frequency. Without it the rarely-executed \
       reinforcement (Low -> Medium) cannot fire"
    ~headers:[ "Scenario"; "frequency ON"; "frequency OFF" ]
    rows

let all () =
  shortcircuit ();
  trust ();
  dataflow ();
  frequency ()
