(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation, plus the Section 9 performance study, the design
   ablations and the Appendix B static check.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe table6     -- one artifact
     dune exec bench/main.exe perf       -- Section 9 timings only *)

let usage () =
  print_endline
    "usage: main.exe [table1|table2|table3|table4|table5|table6|table7|\
     table8|macro|extensions|metrics|fig5|perf|ablate|secure|all]"

let dispatch = function
  | "table1" -> Tables.table1 ()
  | "table2" -> Tables.table2 ()
  | "table3" -> Tables.table3 ()
  | "table4" -> Tables.table4 ()
  | "table5" -> Tables.table5 ()
  | "table6" -> Tables.table6 ()
  | "table7" -> Tables.table7 ()
  | "table8" -> Tables.table8 ()
  | "macro" -> Tables.macro ()
  | "extensions" -> Tables.extensions ()
  | "metrics" -> Metrics.run ()
  | "fig5" -> Tables.fig5 ()
  | "perf" -> Perf.run ()
  | "ablate" -> Ablate.all ()
  | "secure" -> Secure.run ()
  | "all" ->
    Tables.all ();
    Metrics.run ();
    Ablate.all ();
    Secure.run ();
    Perf.run ()
  | arg ->
    Printf.eprintf "unknown artifact %S\n" arg;
    usage ();
    exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: [] -> dispatch "all"
  | _ :: args -> List.iter dispatch args
  | [] -> usage ()
