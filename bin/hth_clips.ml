(* hth_clips: an interactive shell for the expert-system substrate.

   Reads CLIPS-style forms from stdin (or files given on the command
   line), maintaining one engine across inputs.  Besides the constructs
   the loader understands (deftemplate, defrule, defglobal, assert),
   the shell provides:

     (facts)          list working memory
     (rules)          count installed rules
     (run)            run the agenda to quiescence
     (reset)          fresh engine (definitions are lost)
     (exit)           quit

   Example session:

     $ dune exec bin/hth_clips.exe
     CLIPS> (deftemplate n (slot v))
     CLIPS> (defrule big (n (v ?x)) (test (> ?x 10)) => (printout t "big!" crlf))
     CLIPS> (assert (n (v 50)))
     CLIPS> (run)
     big!
     FIRE 1 *)

let make_engine () =
  let e = Expert.Engine.create () in
  Expert.Clips.install_builtins e;
  e

let engine = ref (make_engine ())

let handle_form (form : Expert.Sexp.t) =
  match form with
  | Expert.Sexp.List [ Atom "facts" ] ->
    let facts = Expert.Engine.facts !engine in
    List.iter (fun f -> Fmt.pr "%a@." Expert.Fact.pp f) (List.rev facts);
    Fmt.pr "For a total of %d facts.@." (List.length facts)
  | Expert.Sexp.List [ Atom "rules" ] ->
    Fmt.pr "(rule inspection not tracked; engine accepts defrule)@."
  | Expert.Sexp.List [ Atom "run" ] ->
    let fired = Expert.Engine.run !engine in
    List.iter print_endline (Expert.Engine.drain_output !engine);
    Fmt.pr "FIRE %d@." fired
  | Expert.Sexp.List [ Atom "reset" ] -> engine := make_engine ()
  | Expert.Sexp.List [ Atom "exit" ] | Expert.Sexp.List [ Atom "quit" ] ->
    exit 0
  | form ->
    let text = Fmt.to_to_string Expert.Sexp.pp form in
    (try Expert.Clips.load !engine text with
     | Expert.Clips.Error msg -> Fmt.epr "error: %s@." msg
     | Failure msg -> Fmt.epr "error: %s@." msg);
    List.iter print_endline (Expert.Engine.drain_output !engine)

let feed text =
  match Expert.Sexp.parse_all text with
  | exception Expert.Sexp.Parse_error msg -> Fmt.epr "parse error: %s@." msg
  | forms -> List.iter handle_form forms

(* Accumulate lines until the parentheses balance, so multi-line rules
   can be typed naturally. *)
let balanced s =
  let depth = ref 0 and in_str = ref false in
  String.iter
    (fun c ->
      match c with
      | '"' -> in_str := not !in_str
      | '(' when not !in_str -> incr depth
      | ')' when not !in_str -> decr depth
      | _ -> ())
    s;
  !depth <= 0

let repl () =
  let interactive = Unix.isatty Unix.stdin in
  let buf = Buffer.create 256 in
  (try
     while true do
       if interactive && Buffer.length buf = 0 then Fmt.pr "CLIPS> %!"
       else if interactive then Fmt.pr "   ... %!";
       let line = input_line stdin in
       Buffer.add_string buf line;
       Buffer.add_char buf '\n';
       if balanced (Buffer.contents buf) then begin
         let text = Buffer.contents buf in
         Buffer.clear buf;
         if String.trim text <> "" then feed text
       end
     done
   with End_of_file -> ());
  if Buffer.length buf > 0 then feed (Buffer.contents buf)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [] then repl ()
  else
    List.iter
      (fun path -> feed (In_channel.with_open_bin path In_channel.input_all))
      args
