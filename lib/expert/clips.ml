exception Error of string

let fail fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

let is_int s =
  s <> "" && (match int_of_string_opt s with Some _ -> true | None -> false)

let is_var s = String.length s > 1 && s.[0] = '?' && s.[1] <> '*'

let is_global s =
  String.length s > 3 && s.[0] = '?' && s.[1] = '*' && s.[String.length s - 1] = '*'

(* ?name -> name, $?name -> name *)
let var_name s =
  let s = if String.length s > 0 && s.[0] = '$' then String.sub s 1 (String.length s - 1) else s in
  String.sub s 1 (String.length s - 1)

let global_name s = String.sub s 2 (String.length s - 3)

(* Runtime environment of a firing: rule bindings extended by [bind]. *)
type env = { mutable vars : (string * Value.t) list }

let rec eval_expr eng env (form : Sexp.t) : Value.t =
  match form with
  | Sexp.Quoted s -> Value.Str s
  | Sexp.Atom a when is_int a -> Value.Int (int_of_string a)
  | Sexp.Atom a when is_global a ->
    (match Engine.global eng (global_name a) with
     | Some v -> v
     | None -> fail "undefined global %s" a)
  | Sexp.Atom a when is_var a || (String.length a > 1 && a.[0] = '$') ->
    (match List.assoc_opt (var_name a) env.vars with
     | Some v -> v
     | None -> fail "unbound variable %s" a)
  | Sexp.Atom a -> Value.Sym a
  | Sexp.List (Sexp.Atom fn :: args) ->
    let args = List.map (eval_expr eng env) args in
    Engine.call_fn eng fn args
  | Sexp.List _ -> fail "cannot evaluate %a" Sexp.pp form

let int_of = function
  | Value.Int n -> n
  | v -> fail "expected integer, got %a" Value.pp v

let install_builtins eng =
  let def = Engine.defun eng in
  let fold2 name f =
    def name (function
      | [ a; b ] -> f a b
      | args -> fail "%s expects 2 arguments, got %d" name (List.length args))
  in
  fold2 "eq" (fun a b -> Value.of_bool (Value.equal a b));
  fold2 "neq" (fun a b -> Value.of_bool (not (Value.equal a b)));
  fold2 "<" (fun a b -> Value.of_bool (int_of a < int_of b));
  fold2 ">" (fun a b -> Value.of_bool (int_of a > int_of b));
  fold2 "<=" (fun a b -> Value.of_bool (int_of a <= int_of b));
  fold2 ">=" (fun a b -> Value.of_bool (int_of a >= int_of b));
  def "+" (fun args -> Value.Int (List.fold_left (fun acc v -> acc + int_of v) 0 args));
  def "*" (fun args -> Value.Int (List.fold_left (fun acc v -> acc * int_of v) 1 args));
  def "-" (function
    | [ a ] -> Value.Int (-int_of a)
    | a :: rest -> Value.Int (List.fold_left (fun acc v -> acc - int_of v) (int_of a) rest)
    | [] -> fail "- expects arguments");
  def "and" (fun args -> Value.of_bool (List.for_all Value.truthy args));
  def "or" (fun args -> Value.of_bool (List.exists Value.truthy args));
  def "not" (function
    | [ a ] -> Value.of_bool (not (Value.truthy a))
    | _ -> fail "not expects 1 argument");
  def "str-cat" (fun args -> Value.Str (String.concat "" (List.map Value.text args)));
  def "empty-list" (function
    | [ Value.Lst l ] -> Value.of_bool (l = [])
    | [ _ ] -> Value.sym_false
    | _ -> fail "empty-list expects 1 argument");
  def "length" (function
    | [ Value.Lst l ] -> Value.Int (List.length l)
    | [ Value.Str s ] -> Value.Int (String.length s)
    | _ -> fail "length expects a multifield or string")

(* --- patterns ------------------------------------------------------- *)

let slot_test : Sexp.t -> Pattern.test = function
  | Sexp.Atom "?" -> Pattern.Anything
  | Sexp.Atom a when is_var a || (String.length a > 1 && a.[0] = '$') ->
    Pattern.Var (var_name a)
  | Sexp.Atom a when is_int a -> Pattern.Lit (Value.Int (int_of_string a))
  | Sexp.Atom a -> Pattern.Lit (Value.Sym a)
  | Sexp.Quoted s -> Pattern.Lit (Value.Str s)
  | Sexp.List _ as f -> fail "unsupported slot pattern %a" Sexp.pp f

let parse_pattern ?binding = function
  | Sexp.List (Sexp.Atom tpl :: slots) ->
    let slot = function
      | Sexp.List [ Sexp.Atom name; v ] -> name, slot_test v
      | f -> fail "malformed slot pattern %a" Sexp.pp f
    in
    Pattern.make ?binding tpl (List.map slot slots)
  | f -> fail "malformed pattern %a" Sexp.pp f

(* --- actions --------------------------------------------------------- *)

let rec run_action eng env (form : Sexp.t) =
  match form with
  | Sexp.List [ Sexp.Atom "assert"; Sexp.List (Sexp.Atom tpl :: slots) ] ->
    let slot = function
      | Sexp.List [ Sexp.Atom name; v ] -> name, eval_expr eng env v
      | f -> fail "malformed assert slot %a" Sexp.pp f
    in
    ignore (Engine.assert_fact eng tpl (List.map slot slots))
  | Sexp.List [ Sexp.Atom "retract"; v ] ->
    (match eval_expr eng env v with
     | Value.Int id -> Engine.retract_id eng id
     | v -> fail "retract expects a fact id, got %a" Value.pp v)
  | Sexp.List (Sexp.Atom "printout" :: Sexp.Atom "t" :: args) ->
    let b = Buffer.create 64 in
    List.iter
      (fun arg ->
        match arg with
        | Sexp.Atom "crlf" ->
          Engine.printout eng (Buffer.contents b);
          Buffer.clear b
        | _ -> Buffer.add_string b (Value.text (eval_expr eng env arg)))
      args;
    if Buffer.length b > 0 then Engine.printout eng (Buffer.contents b)
  | Sexp.List [ Sexp.Atom "bind"; Sexp.Atom var; e ] when is_var var ->
    env.vars <- (var_name var, eval_expr eng env e) :: env.vars
  | Sexp.List (Sexp.Atom "if" :: rest) ->
    let rec split_then acc = function
      | Sexp.Atom "then" :: rest -> List.rev acc, rest
      | x :: rest -> split_then (x :: acc) rest
      | [] -> fail "if without then"
    in
    let cond_forms, rest = split_then [] rest in
    let cond =
      match cond_forms with
      | [ c ] -> c
      | _ -> fail "if expects a single condition"
    in
    let rec split_else acc = function
      | Sexp.Atom "else" :: rest -> List.rev acc, rest
      | x :: rest -> split_else (x :: acc) rest
      | [] -> List.rev acc, []
    in
    let then_acts, else_acts = split_else [] rest in
    let branch =
      if Value.truthy (eval_expr eng env cond) then then_acts else else_acts
    in
    List.iter (run_action eng env) branch
  | _ ->
    (* allow bare function-call actions, e.g. host side effects *)
    ignore (eval_expr eng env form)

(* --- defrule --------------------------------------------------------- *)

let compile_defrule = function
  | Sexp.Atom name :: rest ->
    let rest =
      match rest with Sexp.Quoted _ :: r -> r | r -> r
    in
    let rec split_lhs acc = function
      | Sexp.Atom "=>" :: actions -> List.rev acc, actions
      | x :: rest -> split_lhs (x :: acc) rest
      | [] -> fail "defrule %s: missing =>" name
    in
    let lhs, actions = split_lhs [] rest in
    (* group [?f <- pattern] sequences and (test ...) elements *)
    let rec walk patterns negated tests = function
      | [] -> List.rev patterns, List.rev negated, List.rev tests
      | Sexp.Atom v :: Sexp.Atom "<-" :: (Sexp.List _ as p) :: rest
        when is_var v ->
        walk (parse_pattern ~binding:(var_name v) p :: patterns) negated
          tests rest
      | Sexp.List (Sexp.Atom "test" :: [ expr ]) :: rest ->
        walk patterns negated (expr :: tests) rest
      | Sexp.List [ Sexp.Atom "not"; (Sexp.List _ as p) ] :: rest ->
        walk patterns (parse_pattern p :: negated) tests rest
      | (Sexp.List _ as p) :: rest ->
        walk (parse_pattern p :: patterns) negated tests rest
      | f :: _ -> fail "defrule %s: malformed LHS element %a" name Sexp.pp f
    in
    let patterns, negated, tests = walk [] [] [] lhs in
    let guard eng bindings =
      let env = { vars = bindings } in
      List.for_all (fun t -> Value.truthy (eval_expr eng env t)) tests
    in
    let action eng bindings _facts =
      let env = { vars = bindings } in
      List.iter (run_action eng env) actions
    in
    Engine.rule ~name:(Engine.name name) ~negated ~guard patterns action
  | _ -> fail "defrule: missing name"

let parse_defrule eng rest = Engine.defrule eng (compile_defrule rest)

(* --- deftemplate ----------------------------------------------------- *)

let parse_deftemplate eng = function
  | Sexp.Atom name :: rest ->
    let rest = match rest with Sexp.Quoted _ :: r -> r | r -> r in
    let slot = function
      | Sexp.List [ Sexp.Atom ("slot" | "multislot"); Sexp.Atom sname ] ->
        Template.slot sname
      | Sexp.List
          [ Sexp.Atom ("slot" | "multislot"); Sexp.Atom sname;
            Sexp.List (Sexp.Atom "default" :: [ d ]) ] ->
        let env = { vars = [] } in
        Template.slot ~default:(eval_expr eng env d) sname
      | f -> fail "deftemplate %s: malformed slot %a" name Sexp.pp f
    in
    Engine.deftemplate eng (Template.make name (List.map slot rest))
  | _ -> fail "deftemplate: missing name"

(* (deffunction name (?a ?b) expr...) — the last expression's value is
   the result *)
let parse_deffunction eng = function
  | Sexp.Atom name :: Sexp.List params :: body when body <> [] ->
    let params =
      List.map
        (function
          | Sexp.Atom p when is_var p -> var_name p
          | f -> fail "deffunction %s: bad parameter %a" name Sexp.pp f)
        params
    in
    Engine.defun eng name (fun args ->
        if List.length args <> List.length params then
          fail "%s expects %d arguments, got %d" name (List.length params)
            (List.length args);
        let env = { vars = List.combine params args } in
        List.fold_left (fun _ form -> eval_expr eng env form)
          (Value.Sym "nil") body)
  | _ -> fail "malformed deffunction"

let parse_defglobal eng = function
  | [ Sexp.Atom g; Sexp.Atom "="; v ] when is_global g ->
    Engine.set_global eng (global_name g) (eval_expr eng { vars = [] } v)
  | [ Sexp.Atom g; v ] when is_global g ->
    Engine.set_global eng (global_name g) (eval_expr eng { vars = [] } v)
  | _ -> fail "malformed defglobal"

let load_form eng = function
  | Sexp.List (Sexp.Atom "deftemplate" :: rest) -> parse_deftemplate eng rest
  | Sexp.List (Sexp.Atom "defrule" :: rest) -> parse_defrule eng rest
  | Sexp.List (Sexp.Atom "defglobal" :: rest) -> parse_defglobal eng rest
  | Sexp.List (Sexp.Atom "deffunction" :: rest) -> parse_deffunction eng rest
  | Sexp.List [ Sexp.Atom "assert"; _ ] as f ->
    run_action eng { vars = [] } f
  | f -> fail "unsupported toplevel form %a" Sexp.pp f

let parse text =
  try Sexp.parse_all text
  with Sexp.Parse_error msg -> raise (Error msg)

type installer = Engine.t -> unit

(* Rule values are engine-independent (guards and actions receive the
   engine at firing time), so the expensive part of a defrule — walking
   the LHS, building patterns and closing over the action forms — can be
   done once and the finished rule installed into any number of
   engines.  The remaining form kinds are engine-stateful (templates can
   evaluate slot defaults against globals; deffunction/defglobal/assert
   mutate the engine), so they stay as deferred per-engine loads of the
   already-parsed form. *)
let compile_form : Sexp.t -> installer = function
  | Sexp.List (Sexp.Atom "defrule" :: rest) ->
    let rule = compile_defrule rest in
    fun eng -> Engine.defrule eng rule
  | f -> fun eng -> load_form eng f

let compile_forms forms = List.map compile_form forms

let install_compiled eng installers =
  install_builtins eng;
  List.iter (fun f -> f eng) installers

let load_forms eng forms =
  install_builtins eng;
  List.iter (load_form eng) forms

let load eng text = load_forms eng (parse text)

let eval eng text =
  try eval_expr eng { vars = [] } (Sexp.parse text)
  with Sexp.Parse_error msg -> raise (Error msg)
