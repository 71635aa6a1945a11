(* Regeneration of every table of the paper's evaluation section. *)

let verdict_cell (v : Hth.Report.verdict) =
  match v with
  | Hth.Report.Benign -> "benign"
  | Hth.Report.Suspicious s -> "warn " ^ Secpert.Severity.label s

let mark ok = if ok then "ok" else "MISMATCH"

(* One row per scenario: name, expected, observed, agreement. *)
let run_scenarios scenarios =
  List.map
    (fun (sc : Guest.Scenario.t) ->
      let r = Guest.Scenario.run sc in
      let v = Hth.Report.verdict r in
      ( sc, r, v ))
    scenarios

let classification_table ~title scenarios =
  let rows = run_scenarios scenarios in
  let cells =
    List.map
      (fun ((sc : Guest.Scenario.t), (r : Hth.Engine.result), v) ->
        [ sc.sc_name; Guest.Scenario.expected_label sc.sc_expected;
          verdict_cell v; mark (Guest.Scenario.matches sc.sc_expected v);
          string_of_int (List.length r.distinct) ])
      rows
  in
  Grid.print ~title
    ~headers:[ "Benchmark"; "Expected"; "HTH verdict"; "Agrees"; "Warnings" ]
    cells;
  let ok =
    List.length
      (List.filter
         (fun ((sc : Guest.Scenario.t), _, v) ->
           Guest.Scenario.matches sc.sc_expected v)
         rows)
  in
  Printf.printf "Correctly classified: %d / %d\n" ok (List.length rows)

let group_scenarios gid =
  match
    List.find_opt (fun (g, _, _) -> String.equal g gid) Guest.Corpus.groups
  with
  | Some (_, title, scs) -> title, scs
  | None -> invalid_arg ("unknown group " ^ gid)

(* Table 1: execution patterns derived from monitored runs. *)
let table1 () =
  let _, scs = group_scenarios "table1" in
  let rows =
    List.map
      (fun (sc : Guest.Scenario.t) ->
        let r = Guest.Scenario.run sc in
        let p = Hth.Patterns.derive r in
        sc.sc_name :: Hth.Patterns.row p)
      scs
  in
  Grid.print
    ~title:
      "Table 1: Execution patterns exhibited by malicious code (derived \
       from monitored runs)"
    ~headers:
      [ "Exploit Name"; "No user intervention"; "Remotely directed";
        "Hard-coded Resources"; "Degrading performance" ]
    rows

(* Table 2: data source combinations. *)
let table2 () =
  let rows =
    List.map
      (fun (ds, origin) ->
        [ ds;
          (match origin with Some o -> o | None -> "-") ])
      Taint.Origin.combinations
  in
  Grid.print ~title:"Table 2: Data source combinations"
    ~headers:[ "Data Source"; "Resource ID (Origin) Data Source" ]
    rows

(* Table 3: instrumentation granularities. *)
let table3 () =
  Grid.print
    ~title:"Table 3: Information gathered in different instrumentation \
            granularities"
    ~headers:[ "Policy rule"; "Instrumentation granularity";
               "Information gathered" ]
    (List.map
       (fun (a, b, c) -> [ a; b; c ])
       Harrier.Monitor.instrumentation_table)

let table4 () =
  let title, scs = group_scenarios "table4" in
  classification_table ~title:("Table 4: " ^ title) scs

let table5 () =
  let title, scs = group_scenarios "table5" in
  classification_table ~title:("Table 5: " ^ title) scs

let table6 () =
  let title, scs = group_scenarios "table6" in
  classification_table ~title:("Table 6: " ^ title) scs

let table7 () =
  let title, scs = group_scenarios "table7" in
  classification_table ~title:("Table 7: " ^ title) scs

let table8 () =
  let title, scs = group_scenarios "table8" in
  classification_table ~title:("Table 8: " ^ title) scs;
  (* the paper prints the warning transcripts for each exploit *)
  List.iter
    (fun (sc : Guest.Scenario.t) ->
      let r = Guest.Scenario.run sc in
      Printf.printf "\n--- %s ---\n" sc.sc_name;
      List.iter
        (fun w -> Printf.printf "%s\n" (Secpert.Warning.to_string w))
        r.distinct;
      if r.distinct = [] then
        Printf.printf "(no warnings — see Section 8.3.1 for why the \
                       system() exec is filtered)\n")
    (snd (group_scenarios "table8"))

let macro () =
  let title, scs = group_scenarios "macro" in
  classification_table ~title:("Section 8.4: " ^ title) scs

let extensions () =
  let title, scs = group_scenarios "extensions" in
  classification_table ~title scs

(* Fig. 5: the instrumentation a program receives. *)
let fig5 () =
  let img =
    let open Asm in
    let u =
      create ~path:"/bin/fig5" ~kind:Binary.Image.Executable ~base:0x1000 ()
    in
    label u "_start";
    movl u edi eax;
    jnz u "skip";
    movl u ebx (imm 0);
    xorl u edx edx;
    movl u ecx esi;
    movl u eax (imm 5);
    int80 u;
    label u "skip";
    hlt u;
    finalize u
  in
  Printf.printf
    "\n== Fig. 5: Harrier instrumentation example ==\n\
     original code              | instrumented execution\n\
     ---------------------------+------------------------------------\n";
  Array.iteri
    (fun i insn ->
      let pre =
        if i = 0 then "Call Collect_BB_Frequency\n"
        else if Isa.Insn.writes_control_flow img.text.(max 0 (i - 1)) then
          "Call Collect_BB_Frequency\n"
        else ""
      in
      let call =
        match insn with
        | Isa.Insn.Int 0x80 -> "Call Monitor_SystemCalls"
        | Isa.Insn.Jcc _ | Isa.Insn.Jmp _ | Isa.Insn.Hlt -> ""
        | _ -> "Call Track_DataFlow"
      in
      String.split_on_char '\n' (pre ^ call)
      |> List.iter (fun line ->
             if line <> "" then Printf.printf "%-27s| %s\n" "" line);
      Printf.printf "%-27s|\n" (Isa.Insn.to_string insn))
    img.text

let all () =
  table1 ();
  table2 ();
  table3 ();
  table4 ();
  table5 ();
  table6 ();
  table7 ();
  table8 ();
  macro ();
  extensions ();
  fig5 ()
