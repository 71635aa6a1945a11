(* Parser fuzz: every parser that reads outside input — trace lines,
   CLIPS policy text, --fault-plan and --budget specs, serve request
   lines — answers arbitrary bytes and token soup with a value or a
   typed error, never an escaped exception.  The long counts run from
   scripts/check.sh (QCHECK_LONG=1). *)

open QCheck

(* Fragments of every grammar above, so random concatenations get past
   the first character more often than random bytes do.  A soup starts
   with one of [openers] and is often cut short, which lands the input's
   end inside an escape, a string or a form. *)
let openers =
  [| ""; "{"; "{\""; "{\"ev\":\""; "{\"scenario\":"; "("; "(defrule r ";
     "(deftemplate t (slot "; "SYS_read@"; "*#"; "ticks=" |]

let tokens =
  [| "("; ")"; "["; "]"; "{"; "}"; "\""; "\\"; "\\\""; "\\\\"; "\\256";
     "\\n"; "\\u0000"; "\\u00"; "\\u"; "\\x"; "="; ":"; ","; "@"; "#"; "*";
     "?"; "?x"; "?*g*"; "<-"; "=>"; "&"; "|"; "~"; ";"; " "; "\t"; "0"; "1";
     "-1"; "42"; "4294967296"; "99999999999999999999"; "1.5"; "true";
     "false"; "null"; "deftemplate"; "defrule"; "defglobal"; "deffunction";
     "slot"; "default"; "assert"; "retract"; "bind"; "test"; "if"; "then";
     "else"; "printout"; "\"ev\""; "\"scenario\""; "\"op\""; "\"seq\"";
     "\"budget\""; "\"fault_plan\""; "\"seed\""; "\"policy\"";
     "\"health\""; "\"stats\""; "\"store_query\""; "\"clips\""; "SYS_read";
     "SYS_open"; "short"; "enoent"; "stall"; "ticks"; "wm";
     "shadow-pages"; "warnings"; "\000"; "\255" |]

let soup_gen =
  Gen.(
    map2
      (fun o ts -> o ^ String.concat "" ts)
      (oneofa openers)
      (list_size (int_bound 40) (oneofa tokens)))

let input_gen =
  Gen.(
    frequency
      [ 1, string_size ~gen:char (int_bound 120);
        2, soup_gen;
        2, map2 (fun s n -> String.sub s 0 (n mod (String.length s + 1)))
             soup_gen nat;
        (* an unbalanced run of one bracket *)
        1, map2 (fun n c -> String.make n c) (int_bound 2000)
             (oneofl [ '('; '['; '{' ]) ])

let input = make ~print:(Printf.sprintf "%S") input_gen

let returns f x =
  match f x with
  | (_ : _ result) -> true
  | exception e ->
    Test.fail_reportf "escaped exception %s" (Printexc.to_string e)

(* [Clips.parse] documents [Clips.Error] as its one failure. *)
let clips_returns s =
  match Expert.Clips.parse s with
  | (_ : Expert.Sexp.t list) | (exception Expert.Clips.Error _) -> true
  | exception e ->
    Test.fail_reportf "escaped exception %s" (Printexc.to_string e)

let prop_jsonl =
  Test.make ~count:500 ~long_factor:20 ~name:"fuzz: Jsonl.parse_line"
    input (returns Forensics.Jsonl.parse_line)

let prop_fault_plan =
  Test.make ~count:500 ~long_factor:20 ~name:"fuzz: Fault.parse" input
    (returns Osim.Fault.parse)

let prop_budgets =
  Test.make ~count:500 ~long_factor:20 ~name:"fuzz: Engine.parse_budgets"
    (make
       ~print:(fun l -> String.concat " | " (List.map (Printf.sprintf "%S") l))
       Gen.(list_size (int_bound 3) input_gen))
    (returns Hth.Engine.parse_budgets)

let prop_clips =
  Test.make ~count:500 ~long_factor:20 ~name:"fuzz: Clips.parse" input
    clips_returns

(* 10^6-deep unbalanced nesting: recursive descent must neither
   overflow nor escape. *)
let deep_case =
  Alcotest.test_case "fuzz: 10^6-deep nesting" `Quick (fun () ->
      List.iter
        (fun c ->
          let s = String.make 1_000_000 c in
          ignore (returns Forensics.Jsonl.parse_line s);
          ignore (returns Osim.Fault.parse s);
          ignore (returns Hth.Engine.parse_budgets [ s ]);
          ignore (clips_returns s))
        [ '('; '['; '{' ])

(* One service for every case: its resolver knows no scenario, so run
   requests come back as typed errors and no session starts.  Each case
   is one connection; a line never holds a newline, as the transport
   splits on it. *)
let no_scenarios =
  lazy (Fleet.Serve.create ~jobs:1 ~resolver:(fun _ -> None) ())

let prop_serve =
  Test.make ~count:100 ~long_factor:20 ~name:"fuzz: serve request lines"
    (make
       ~print:(fun l -> String.concat "\n" (List.map (Printf.sprintf "%S") l))
       Gen.(
         list_size (int_range 1 6)
           (map (String.map (function '\n' -> ' ' | c -> c)) input_gen)))
    (fun lines ->
      let rest = ref lines and out = ref [] in
      let input () =
        match !rest with
        | [] -> None
        | l :: tl ->
          rest := tl;
          Some l
      in
      let n =
        Fleet.Serve.serve_connection (Lazy.force no_scenarios) ~input
          ~output:(fun l -> out := l :: !out)
          ()
      in
      let out = List.rev !out in
      if n <> List.length lines || List.length out <> List.length lines then
        Test.fail_reportf "%d lines in, %d answered, %d response lines"
          (List.length lines) n (List.length out);
      List.iteri
        (fun i l ->
          match Forensics.Jsonl.parse_line l with
          | Ok fields when List.assoc_opt "seq" fields = Some (Int i) -> ()
          | _ ->
            Test.fail_reportf "response %d out of order or malformed: %s" i l)
        out;
      true)

let serve_case =
  let name, speed, run = Test_props.to_alcotest_seeded prop_serve in
  ( name,
    speed,
    fun () ->
      Fun.protect run ~finally:(fun () ->
          if Lazy.is_val no_scenarios then
            Fleet.Serve.shutdown (Lazy.force no_scenarios)) )

let suite =
  List.map Test_props.to_alcotest_seeded
    [ prop_jsonl; prop_fault_plan; prop_budgets; prop_clips ]
  @ [ deep_case; serve_case ]
