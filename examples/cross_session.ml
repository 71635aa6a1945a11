(* Cross-session profiles (Section 10, future work items 6 and 8).

   The single-session policy warns every time g++ execs its hard-coded
   compiler stages.  A profile remembers the warnings the user has
   acknowledged; later sessions only surface *novel* behaviour.  The
   profile round-trips through plain text, so it can live in a dotfile
   between runs.

   All sessions run through one [Hth.Engine.t]: the policy is compiled
   once, and every later run reuses it — the natural shape for a tool
   that monitors program after program against one profile.

     dune exec examples/cross_session.exe *)

let find name =
  match Guest.Corpus.find name with
  | Some sc -> sc
  | None -> failwith ("missing corpus scenario: " ^ name)

let show title profile (r : Hth.Engine.result) =
  let novel = Hth.Profile.novel profile r.warnings in
  Fmt.pr "--- %s ---@." title;
  Fmt.pr "raw verdict:       %a (%d warnings)@." Hth.Report.pp_verdict
    (Hth.Report.verdict r)
    (List.length r.warnings);
  Fmt.pr "effective verdict: %a (%d novel)@.@." Hth.Report.pp_verdict
    (Hth.Profile.effective_verdict profile r)
    (List.length novel)

let () =
  let gxx = find "g++" in
  let profile = Hth.Profile.create () in
  (* compile-once shared artifacts: every session below reuses them *)
  let engine = Hth.Engine.create () in

  (* session 1: the compiler driver warns, the user inspects and accepts *)
  let r1 = Hth.Engine.run engine gxx.sc_setup in
  show "session 1 (fresh profile)" profile r1;
  List.iter
    (fun w -> Fmt.pr "user acknowledges:@.%s@.@." (Secpert.Warning.to_string w))
    r1.distinct;
  Hth.Profile.acknowledge profile r1.warnings;

  (* the profile persists between sessions as plain text *)
  let saved = Hth.Profile.to_string profile in
  Fmt.pr "persisted profile (%d fingerprints):@.%s@." (Hth.Profile.size profile)
    saved;
  let profile = Hth.Profile.of_string saved in

  (* session 2: the same behaviour is now expected *)
  let r2 = Hth.Engine.run engine gxx.sc_setup in
  show "session 2 (profile loaded)" profile r2;

  (* but a different program's malice is still flagged *)
  let grabem = find "grabem" in
  let r3 = Hth.Engine.run engine grabem.sc_setup in
  show "grabem under the same profile" profile r3
