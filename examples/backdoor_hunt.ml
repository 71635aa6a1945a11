(* Backdoor hunt: monitor a remote-shell daemon (the pma exploit of
   Section 8.3.6) and let Secpert *kill* it as soon as a High-severity
   warning fires — standing in for the interactive user answering
   "stop" to the warning dialog.

     dune exec examples/backdoor_hunt.exe *)

let find name =
  match Guest.Corpus.find name with
  | Some sc -> sc
  | None -> failwith ("missing corpus scenario: " ^ name)

let describe title (r : Hth.Engine.result) =
  Fmt.pr "--- %s ---@." title;
  Fmt.pr "verdict: %a, %d distinct warnings@." Hth.Report.pp_verdict
    (Hth.Report.verdict r)
    (List.length r.distinct);
  List.iter
    (fun (pid, exe, state) ->
      Fmt.pr "  pid %d %s: %a@." pid exe Osim.Process.pp_state state)
    r.os_report.rep_final;
  (match r.distinct with
   | w :: _ -> Fmt.pr "first warning:@.%s@." (Secpert.Warning.to_string w)
   | [] -> ());
  Fmt.pr "@."

let () =
  let pma = find "pma" in
  (* 1. observe only: the daemon runs to completion, every flow logged *)
  describe "observe (no enforcement)" (Guest.Scenario.run pma);
  (* 2. enforce: kill on the first High warning — the daemon dies before
        it can bridge the attacker to the shell pipes *)
  describe "enforce (kill at HIGH)"
    (Hth.Engine.run
       (Hth.Engine.create ~auto_kill:Secpert.Severity.High ())
       pma.sc_setup)
