type t =
  | Atom of string
  | Quoted of string
  | List of t list

exception Parse_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

type lexer = { src : string; mutable pos : int }

let peek lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None

let advance lx = lx.pos <- lx.pos + 1

let rec skip_ws lx =
  match peek lx with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance lx;
    skip_ws lx
  | Some ';' ->
    let rec to_eol () =
      match peek lx with
      | Some '\n' | None -> ()
      | Some _ ->
        advance lx;
        to_eol ()
    in
    to_eol ();
    skip_ws lx
  | Some _ | None -> ()

let read_quoted lx =
  advance lx;
  let b = Buffer.create 16 in
  let rec go () =
    match peek lx with
    | None -> fail "unterminated string at %d" lx.pos
    | Some '"' ->
      advance lx;
      Buffer.contents b
    | Some '\\' ->
      advance lx;
      (match peek lx with
       | Some 'n' -> Buffer.add_char b '\n'; advance lx
       | Some 't' -> Buffer.add_char b '\t'; advance lx
       | Some 'r' -> Buffer.add_char b '\r'; advance lx
       | Some 'b' -> Buffer.add_char b '\b'; advance lx
       | Some ('0' .. '9') ->
         (* OCaml-style decimal escape \DDD, as %S produces *)
         let digit () =
           match peek lx with
           | Some ('0' .. '9' as c) ->
             advance lx;
             Char.code c - Char.code '0'
           | _ -> fail "bad decimal escape at %d" lx.pos
         in
         let at = lx.pos in
         let d1 = digit () in
         let d2 = digit () in
         let d3 = digit () in
         let code = (d1 * 100) + (d2 * 10) + d3 in
         if code > 255 then fail "decimal escape above 255 at %d" at;
         Buffer.add_char b (Char.chr code)
       | Some c -> Buffer.add_char b c; advance lx
       | None -> fail "dangling escape at %d" lx.pos);
      go ()
    | Some c ->
      Buffer.add_char b c;
      advance lx;
      go ()
  in
  go ()

let is_atom_char = function
  | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' -> false
  | _ -> true

let read_atom lx =
  let start = lx.pos in
  let rec go () =
    match peek lx with
    | Some c when is_atom_char c ->
      advance lx;
      go ()
    | Some _ | None -> ()
  in
  go ();
  String.sub lx.src start (lx.pos - start)

let rec read_form lx =
  skip_ws lx;
  match peek lx with
  | None -> fail "unexpected end of input"
  | Some '(' ->
    advance lx;
    let rec items acc =
      skip_ws lx;
      match peek lx with
      | Some ')' ->
        advance lx;
        List (List.rev acc)
      | None -> fail "unterminated list"
      | Some _ -> items (read_form lx :: acc)
    in
    items []
  | Some ')' -> fail "unexpected ')' at %d" lx.pos
  | Some '"' -> Quoted (read_quoted lx)
  | Some _ -> Atom (read_atom lx)

let parse_all src =
  let lx = { src; pos = 0 } in
  let rec go acc =
    skip_ws lx;
    if lx.pos >= String.length src then List.rev acc
    else go (read_form lx :: acc)
  in
  go []

let parse src =
  match parse_all src with
  | [ form ] -> form
  | forms -> fail "expected one form, got %d" (List.length forms)

let rec pp ppf = function
  | Atom a -> Fmt.string ppf a
  | Quoted s -> Fmt.pf ppf "%S" s
  | List items -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:sp pp) items
