(* Unit tests for the mini-CLIPS expert system: values, templates,
   patterns, the inference engine, the s-expression reader and the CLIPS
   subset loader. *)

open Expert

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Values                                                              *)

let test_value_truthy () =
  check "FALSE is false" false (Value.truthy Value.sym_false);
  check "0 is false" false (Value.truthy (Value.Int 0));
  check "empty multifield is false" false (Value.truthy (Value.Lst []));
  check "TRUE is true" true (Value.truthy Value.sym_true);
  check "string is true" true (Value.truthy (Value.Str ""));
  check "1 is true" true (Value.truthy (Value.Int 1))

let test_value_equal () =
  check "sym eq" true (Value.equal (Sym "a") (Sym "a"));
  check "sym vs str differ" false (Value.equal (Sym "a") (Str "a"));
  check "lists compare deep" true
    (Value.equal (Lst [ Int 1; Sym "x" ]) (Lst [ Int 1; Sym "x" ]));
  check "list length matters" false
    (Value.equal (Lst [ Int 1 ]) (Lst [ Int 1; Int 2 ]))

let test_value_text () =
  check_str "string unquoted" "hi" (Value.text (Str "hi"));
  check_str "int text" "42" (Value.text (Int 42));
  check_str "list joins" "a 1" (Value.text (Lst [ Sym "a"; Int 1 ]))

(* ------------------------------------------------------------------ *)
(* Templates and facts                                                 *)

let tpl =
  Template.make "ev"
    [ Template.slot "kind"; Template.slot ~default:(Value.Int 0) "level" ]

let test_template_defaults () =
  match Template.normalize tpl [ "kind", Value.Sym "x" ] with
  | Ok slots ->
    check "default filled" true
      (List.assoc "level" slots = Value.Int 0);
    check_int "slot order preserved" 2 (List.length slots)
  | Error e -> Alcotest.fail e

let test_template_unknown_slot () =
  match Template.normalize tpl [ "bogus", Value.Int 1 ] with
  | Ok _ -> Alcotest.fail "unknown slot accepted"
  | Error _ -> ()

let test_fact_slots () =
  let f =
    Fact.make ~id:7 ~template:"ev"
      ~slots:[ "kind", Value.Sym "x"; "level", Value.Int 3 ]
  in
  check "slot found" true (Fact.slot f "level" = Some (Value.Int 3));
  check "slot missing" true (Fact.slot f "nope" = None);
  check "slot_exn" true (Fact.slot_exn f "kind" = Value.Sym "x")

(* ------------------------------------------------------------------ *)
(* Patterns                                                            *)

let fact_x level =
  Fact.make ~id:1 ~template:"ev"
    ~slots:[ "kind", Value.Sym "x"; "level", Value.Int level ]

let test_pattern_literal () =
  let p = Pattern.make "ev" [ "kind", Pattern.Lit (Value.Sym "x") ] in
  check "literal matches" true (Pattern.match_fact p [] (fact_x 1) <> None);
  let p' = Pattern.make "ev" [ "kind", Pattern.Lit (Value.Sym "y") ] in
  check "literal mismatch" true (Pattern.match_fact p' [] (fact_x 1) = None)

let test_pattern_var_binding () =
  let p = Pattern.make "ev" [ "level", Pattern.Var "l" ] in
  match Pattern.match_fact p [] (fact_x 9) with
  | Some b -> check "var bound" true (Pattern.lookup b "l" = Some (Value.Int 9))
  | None -> Alcotest.fail "var pattern should match"

let test_pattern_var_consistency () =
  let p =
    Pattern.make "ev" [ "kind", Pattern.Var "v"; "level", Pattern.Var "v" ]
  in
  check "inconsistent bindings rejected" true
    (Pattern.match_fact p [] (fact_x 1) = None);
  let same =
    Fact.make ~id:2 ~template:"ev"
      ~slots:[ "kind", Value.Int 5; "level", Value.Int 5 ]
  in
  check "consistent bindings accepted" true
    (Pattern.match_fact p [] same <> None)

let test_pattern_fact_binding () =
  let p = Pattern.make ~binding:"f" "ev" [] in
  match Pattern.match_fact p [] (fact_x 1) with
  | Some b ->
    check "fact id bound" true (Pattern.lookup b "f" = Some (Value.Int 1))
  | None -> Alcotest.fail "should match"

let test_pattern_template_mismatch () =
  let p = Pattern.make "other" [] in
  check "template gates" true (Pattern.match_fact p [] (fact_x 1) = None)

let test_pattern_missing_slot () =
  let p = Pattern.make "ev" [ "absent", Pattern.Anything ] in
  check "missing slot fails" true (Pattern.match_fact p [] (fact_x 1) = None)

let test_pattern_pred () =
  let p =
    Pattern.make "ev"
      [ "level", Pattern.Pred ("big", function
          | Value.Int n -> n > 5
          | _ -> false) ]
  in
  check "pred true" true (Pattern.match_fact p [] (fact_x 9) <> None);
  check "pred false" true (Pattern.match_fact p [] (fact_x 1) = None)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let fresh_engine () =
  let e = Engine.create () in
  Engine.deftemplate e tpl;
  e

let test_engine_assert_retract () =
  let e = fresh_engine () in
  let f = Engine.assert_fact e "ev" [ "kind", Value.Sym "x" ] in
  check_int "one fact" 1 (List.length (Engine.facts e));
  check "fact by id" true (Engine.fact_by_id e f.id <> None);
  Engine.retract e f;
  check_int "retracted" 0 (List.length (Engine.facts e))

let test_engine_unknown_template () =
  let e = fresh_engine () in
  match Engine.assert_fact e "nope" [] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown template accepted"

let test_engine_fires () =
  let e = fresh_engine () in
  let hits = ref 0 in
  Engine.defrule e
    (Engine.rule ~name:(Engine.name "r")
       [ Pattern.make "ev" [ "kind", Pattern.Lit (Value.Sym "x") ] ]
       (fun _ _ _ -> incr hits));
  ignore (Engine.assert_fact e "ev" [ "kind", Value.Sym "x" ]);
  ignore (Engine.assert_fact e "ev" [ "kind", Value.Sym "y" ]);
  check_int "fired once" 1 (Engine.run e);
  check_int "action ran" 1 !hits

let test_engine_refraction () =
  let e = fresh_engine () in
  Engine.defrule e
    (Engine.rule ~name:(Engine.name "r") [ Pattern.make "ev" [] ] (fun _ _ _ -> ()));
  ignore (Engine.assert_fact e "ev" []);
  check_int "first run fires" 1 (Engine.run e);
  check_int "second run silent" 0 (Engine.run e);
  ignore (Engine.assert_fact e "ev" []);
  check_int "new fact fires again" 1 (Engine.run e)

let test_engine_salience () =
  let e = fresh_engine () in
  let order = ref [] in
  let record name = order := name :: !order in
  Engine.defrule e
    (Engine.rule ~name:(Engine.name "low") ~salience:(-5) [ Pattern.make "ev" [] ]
       (fun _ _ _ -> record "low"));
  Engine.defrule e
    (Engine.rule ~name:(Engine.name "high") ~salience:10 [ Pattern.make "ev" [] ]
       (fun _ _ _ -> record "high"));
  ignore (Engine.assert_fact e "ev" []);
  ignore (Engine.run e);
  Alcotest.(check (list string)) "salience order" [ "high"; "low" ]
    (List.rev !order)

let test_engine_join () =
  let e = fresh_engine () in
  let pairs = ref 0 in
  Engine.defrule e
    (Engine.rule ~name:(Engine.name "join")
       [ Pattern.make "ev" [ "level", Pattern.Var "l" ];
         Pattern.make "ev"
           [ "kind", Pattern.Lit (Value.Sym "probe");
             "level", Pattern.Var "l" ] ]
       (fun _ _ facts ->
         check_int "two facts matched" 2 (List.length facts);
         incr pairs));
  ignore
    (Engine.assert_fact e "ev" [ "kind", Value.Sym "a"; "level", Value.Int 1 ]);
  ignore
    (Engine.assert_fact e "ev"
       [ "kind", Value.Sym "probe"; "level", Value.Int 1 ]);
  ignore
    (Engine.assert_fact e "ev" [ "kind", Value.Sym "b"; "level", Value.Int 2 ]);
  ignore (Engine.run e);
  (* probe joins with: itself and the level-1 "a" fact *)
  check_int "joined activations" 2 !pairs

let test_engine_guard () =
  let e = fresh_engine () in
  let hits = ref 0 in
  Engine.defrule e
    (Engine.rule ~name:(Engine.name "guarded")
       ~guard:(fun _ b -> Pattern.lookup b "l" = Some (Value.Int 3))
       [ Pattern.make "ev" [ "level", Pattern.Var "l" ] ]
       (fun _ _ _ -> incr hits));
  ignore (Engine.assert_fact e "ev" [ "kind", Value.Sym "x"; "level", Value.Int 3 ]);
  ignore (Engine.assert_fact e "ev" [ "kind", Value.Sym "x"; "level", Value.Int 4 ]);
  ignore (Engine.run e);
  check_int "guard filters" 1 !hits

let test_engine_cascade () =
  let e = fresh_engine () in
  Engine.deftemplate e (Template.make "out" [ Template.slot "v" ]);
  Engine.defrule e
    (Engine.rule ~name:(Engine.name "produce")
       [ Pattern.make "ev" [ "level", Pattern.Var "l" ] ]
       (fun e b _ ->
         match Pattern.lookup b "l" with
         | Some v -> ignore (Engine.assert_fact e "out" [ "v", v ])
         | None -> ()));
  let consumed = ref None in
  Engine.defrule e
    (Engine.rule ~name:(Engine.name "consume") [ Pattern.make "out" [ "v", Pattern.Var "v" ] ]
       (fun _ b _ -> consumed := Pattern.lookup b "v"));
  ignore (Engine.assert_fact e "ev" [ "kind", Value.Sym "x"; "level", Value.Int 8 ]);
  check_int "two firings" 2 (Engine.run e);
  check "cascaded" true (!consumed = Some (Value.Int 8))

let test_engine_limit () =
  let e = fresh_engine () in
  (* a rule that keeps asserting fresh facts: the limit must stop it *)
  Engine.defrule e
    (Engine.rule ~name:(Engine.name "loop") [ Pattern.make "ev" [] ]
       (fun e _ _ -> ignore (Engine.assert_fact e "ev" [])));
  ignore (Engine.assert_fact e "ev" []);
  check_int "limited" 5 (Engine.run ~limit:5 e)

let test_engine_negated () =
  let e = fresh_engine () in
  let hits = ref 0 in
  Engine.defrule e
    (Engine.rule ~name:(Engine.name "lonely")
       ~negated:
         [ Pattern.make "ev" [ "kind", Pattern.Lit (Value.Sym "blocker") ] ]
       [ Pattern.make "ev" [ "kind", Pattern.Lit (Value.Sym "x") ] ]
       (fun _ _ _ -> incr hits));
  ignore (Engine.assert_fact e "ev" [ "kind", Value.Sym "x" ]);
  ignore (Engine.run e);
  check_int "fires without blocker" 1 !hits;
  ignore (Engine.assert_fact e "ev" [ "kind", Value.Sym "x" ]);
  ignore (Engine.assert_fact e "ev" [ "kind", Value.Sym "blocker" ]);
  ignore (Engine.run e);
  check_int "blocked by negated CE" 1 !hits

let test_engine_negated_binding () =
  (* the negated pattern shares variables with the positive ones *)
  let e = fresh_engine () in
  let hits = ref [] in
  Engine.defrule e
    (Engine.rule ~name:(Engine.name "unpaired")
       ~negated:
         [ Pattern.make "ev"
             [ "kind", Pattern.Lit (Value.Sym "ack");
               "level", Pattern.Var "l" ] ]
       [ Pattern.make "ev"
           [ "kind", Pattern.Lit (Value.Sym "req");
             "level", Pattern.Var "l" ] ]
       (fun _ b _ -> hits := Pattern.lookup b "l" :: !hits));
  ignore (Engine.assert_fact e "ev" [ "kind", Value.Sym "req"; "level", Value.Int 1 ]);
  ignore (Engine.assert_fact e "ev" [ "kind", Value.Sym "req"; "level", Value.Int 2 ]);
  ignore (Engine.assert_fact e "ev" [ "kind", Value.Sym "ack"; "level", Value.Int 1 ]);
  ignore (Engine.run e);
  (match !hits with
   | [ Some (Value.Int 2) ] -> ()
   | _ -> Alcotest.fail "only the unacknowledged request should fire")

let test_engine_output () =
  let e = fresh_engine () in
  Engine.printout e "hello";
  Engine.printout e "world";
  Alcotest.(check (list string)) "buffered" [ "hello"; "world" ]
    (Engine.drain_output e);
  Alcotest.(check (list string)) "drained" [] (Engine.drain_output e)

let test_engine_functions_globals () =
  let e = fresh_engine () in
  Engine.defun e "double" (function
    | [ Value.Int n ] -> Value.Int (2 * n)
    | _ -> Value.sym_false);
  check "call host fn" true (Engine.call_fn e "double" [ Value.Int 21 ] = Value.Int 42);
  (match Engine.call_fn e "missing" [] with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "missing function accepted");
  Engine.set_global e "X" (Value.Int 7);
  check "global read" true (Engine.global e "X" = Some (Value.Int 7));
  check "global missing" true (Engine.global e "Y" = None)

(* ------------------------------------------------------------------ *)
(* S-expressions                                                       *)

let test_sexp_atoms () =
  (match Sexp.parse "hello" with
   | Sexp.Atom "hello" -> ()
   | _ -> Alcotest.fail "atom");
  (match Sexp.parse "\"a b\\n\"" with
   | Sexp.Quoted "a b\n" -> ()
   | _ -> Alcotest.fail "quoted with escape")

let test_sexp_nesting () =
  match Sexp.parse "(a (b 1) \"s\")" with
  | Sexp.List [ Atom "a"; List [ Atom "b"; Atom "1" ]; Quoted "s" ] -> ()
  | _ -> Alcotest.fail "nesting"

let test_sexp_comments () =
  check_int "comments skipped" 2
    (List.length (Sexp.parse_all "; header\n(a) ; mid\n(b)\n; tail"))

let test_sexp_errors () =
  List.iter
    (fun src ->
      match Sexp.parse_all src with
      | exception Sexp.Parse_error _ -> ()
      | _ -> Alcotest.fail ("accepted malformed " ^ src))
    [ "(a"; ")"; "\"unterminated"; "\"\\256\"" ]

(* ------------------------------------------------------------------ *)
(* CLIPS loader                                                        *)

let clips_engine text =
  let e = Engine.create () in
  Clips.load e text;
  e

let test_clips_deftemplate_assert () =
  let e =
    clips_engine
      {|(deftemplate person (slot name) (slot age (default 0)))
        (assert (person (name "ada")))|}
  in
  match Engine.facts e with
  | [ f ] ->
    check "name slot" true (Fact.slot f "name" = Some (Value.Str "ada"));
    check "default age" true (Fact.slot f "age" = Some (Value.Int 0))
  | _ -> Alcotest.fail "expected one fact"

let test_clips_rule_fires () =
  let e =
    clips_engine
      {|(deftemplate n (slot v))
        (defrule big "doc" (n (v ?x)) (test (> ?x 10)) =>
          (printout t "big " ?x crlf))
        (assert (n (v 5)))
        (assert (n (v 50)))|}
  in
  ignore (Engine.run e);
  Alcotest.(check (list string)) "only the big one" [ "big 50" ]
    (Engine.drain_output e)

let test_clips_bind_if_else () =
  let e =
    clips_engine
      {|(deftemplate n (slot v))
        (defrule classify (n (v ?x)) =>
          (bind ?label small)
          (if (> ?x 10) then (bind ?label big) else (bind ?label small))
          (printout t ?label crlf))
        (assert (n (v 50)))|}
  in
  ignore (Engine.run e);
  Alcotest.(check (list string)) "else branch" [ "big" ]
    (Engine.drain_output e)

let test_clips_retract () =
  let e =
    clips_engine
      {|(deftemplate n (slot v))
        (defrule eat ?f <- (n (v ?)) => (retract ?f))
        (assert (n (v 1)))|}
  in
  ignore (Engine.run e);
  check_int "retracted by rule" 0 (List.length (Engine.facts e))

let test_clips_globals () =
  let e =
    clips_engine
      {|(defglobal ?*LIMIT* = 10)
        (deftemplate n (slot v))
        (defrule over (n (v ?x)) (test (> ?x ?*LIMIT*)) =>
          (printout t "over" crlf))
        (assert (n (v 11)))|}
  in
  ignore (Engine.run e);
  Alcotest.(check (list string)) "global in test" [ "over" ]
    (Engine.drain_output e)

let test_clips_builtins () =
  let e = Engine.create () in
  Clips.install_builtins e;
  let ev s = Clips.eval e s in
  check "eq" true (ev "(eq a a)" = Value.sym_true);
  check "neq" true (ev "(neq a b)" = Value.sym_true);
  check "arith" true (ev "(+ 1 2 3)" = Value.Int 6);
  check "minus" true (ev "(- 10 4)" = Value.Int 6);
  check "negate" true (ev "(- 5)" = Value.Int (-5));
  check "mult" true (ev "(* 2 3 4)" = Value.Int 24);
  check "lt" true (ev "(< 1 2)" = Value.sym_true);
  check "ge" true (ev "(>= 2 2)" = Value.sym_true);
  check "and short" true (ev "(and TRUE TRUE)" = Value.sym_true);
  check "or" true (ev "(or FALSE TRUE)" = Value.sym_true);
  check "not" true (ev "(not FALSE)" = Value.sym_true);
  check "str-cat" true (ev "(str-cat \"a\" 1 b)" = Value.Str "a1b");
  check "length of string" true (ev "(length \"abc\")" = Value.Int 3)

let test_engine_negation_after_retract () =
  (* negation is re-evaluated per run: once the blocker is retracted the
     previously-blocked activation becomes available *)
  let e = fresh_engine () in
  let hits = ref 0 in
  Engine.defrule e
    (Engine.rule ~name:(Engine.name "r")
       ~negated:
         [ Pattern.make "ev" [ "kind", Pattern.Lit (Value.Sym "blocker") ] ]
       [ Pattern.make "ev" [ "kind", Pattern.Lit (Value.Sym "x") ] ]
       (fun _ _ _ -> incr hits));
  ignore (Engine.assert_fact e "ev" [ "kind", Value.Sym "x" ]);
  let blocker = Engine.assert_fact e "ev" [ "kind", Value.Sym "blocker" ] in
  ignore (Engine.run e);
  check_int "blocked" 0 !hits;
  Engine.retract e blocker;
  ignore (Engine.run e);
  check_int "unblocked after retract" 1 !hits

let test_clips_not_ce () =
  let e =
    clips_engine
      {|(deftemplate job (slot id) (slot state))
        (defrule stuck (job (id ?i) (state running))
          (not (job (id ?i) (state done))) =>
          (printout t "stuck " ?i crlf))
        (assert (job (id 1) (state running)))
        (assert (job (id 1) (state done)))
        (assert (job (id 2) (state running)))|}
  in
  ignore (Engine.run e);
  Alcotest.(check (list string)) "not CE in clips" [ "stuck 2" ]
    (Engine.drain_output e)

let test_clips_deffunction () =
  let e =
    clips_engine
      {|(deffunction danger-score (?freq ?time)
          (+ (* 10 ?freq) ?time))
        (deftemplate ev2 (slot f) (slot t))
        (defrule scored (ev2 (f ?f) (t ?t))
          (test (> (danger-score ?f ?t) 100)) =>
          (printout t "score " (danger-score ?f ?t) crlf))
        (assert (ev2 (f 1) (t 5)))
        (assert (ev2 (f 10) (t 50)))|}
  in
  ignore (Engine.run e);
  Alcotest.(check (list string)) "deffunction in tests and actions"
    [ "score 150" ]
    (Engine.drain_output e);
  (* arity is checked *)
  match Engine.call_fn e "danger-score" [ Value.Int 1 ] with
  | exception Clips.Error _ -> ()
  | _ -> Alcotest.fail "bad arity accepted"

let test_clips_bad_forms () =
  List.iter
    (fun src ->
      match clips_engine src with
      | exception Clips.Error _ -> ()
      | _ -> Alcotest.fail ("accepted bad form " ^ src))
    [ "(defrule)"; "(deftemplate t (slot))"; "(frobnicate 1)";
      "(defrule r (t (x ?v)) (printout t ?v))" (* missing => *) ]

let suite =
  [ Alcotest.test_case "value truthiness" `Quick test_value_truthy;
    Alcotest.test_case "value equality" `Quick test_value_equal;
    Alcotest.test_case "value text" `Quick test_value_text;
    Alcotest.test_case "template defaults" `Quick test_template_defaults;
    Alcotest.test_case "template unknown slot" `Quick
      test_template_unknown_slot;
    Alcotest.test_case "fact slots" `Quick test_fact_slots;
    Alcotest.test_case "pattern literal" `Quick test_pattern_literal;
    Alcotest.test_case "pattern variable binding" `Quick
      test_pattern_var_binding;
    Alcotest.test_case "pattern variable consistency" `Quick
      test_pattern_var_consistency;
    Alcotest.test_case "pattern fact binding" `Quick
      test_pattern_fact_binding;
    Alcotest.test_case "pattern template mismatch" `Quick
      test_pattern_template_mismatch;
    Alcotest.test_case "pattern missing slot" `Quick
      test_pattern_missing_slot;
    Alcotest.test_case "pattern predicate" `Quick test_pattern_pred;
    Alcotest.test_case "engine assert/retract" `Quick
      test_engine_assert_retract;
    Alcotest.test_case "engine unknown template" `Quick
      test_engine_unknown_template;
    Alcotest.test_case "engine fires matching rule" `Quick
      test_engine_fires;
    Alcotest.test_case "engine refraction" `Quick test_engine_refraction;
    Alcotest.test_case "engine salience" `Quick test_engine_salience;
    Alcotest.test_case "engine multi-pattern join" `Quick test_engine_join;
    Alcotest.test_case "engine guard" `Quick test_engine_guard;
    Alcotest.test_case "engine cascade" `Quick test_engine_cascade;
    Alcotest.test_case "engine firing limit" `Quick test_engine_limit;
    Alcotest.test_case "engine negated CE" `Quick test_engine_negated;
    Alcotest.test_case "engine negated CE with bindings" `Quick
      test_engine_negated_binding;
    Alcotest.test_case "clips not CE" `Quick test_clips_not_ce;
    Alcotest.test_case "engine output capture" `Quick test_engine_output;
    Alcotest.test_case "engine functions and globals" `Quick
      test_engine_functions_globals;
    Alcotest.test_case "sexp atoms and strings" `Quick test_sexp_atoms;
    Alcotest.test_case "sexp nesting" `Quick test_sexp_nesting;
    Alcotest.test_case "sexp comments" `Quick test_sexp_comments;
    Alcotest.test_case "sexp errors" `Quick test_sexp_errors;
    Alcotest.test_case "clips deftemplate/assert" `Quick
      test_clips_deftemplate_assert;
    Alcotest.test_case "clips rule fires" `Quick test_clips_rule_fires;
    Alcotest.test_case "clips bind/if/else" `Quick test_clips_bind_if_else;
    Alcotest.test_case "clips retract via binding" `Quick
      test_clips_retract;
    Alcotest.test_case "clips globals" `Quick test_clips_globals;
    Alcotest.test_case "clips builtins" `Quick test_clips_builtins;
    Alcotest.test_case "clips deffunction" `Quick test_clips_deffunction;
    Alcotest.test_case "clips rejects bad forms" `Quick
      test_clips_bad_forms;
    Alcotest.test_case "negation re-evaluated after retract" `Quick
      test_engine_negation_after_retract ]
