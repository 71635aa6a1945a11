type entry = {
  step : int;
  ev : string;
  fields : (string * Jsonl.value) list;
  line : int;
  raw : string;
}

type t = {
  entries : entry list;
  by_step : (int, entry) Hashtbl.t;
}

let int_field e name =
  match List.assoc_opt name e.fields with
  | Some (Jsonl.Int n) -> Some n
  | Some _ | None -> None

let str_field e name =
  match List.assoc_opt name e.fields with
  | Some (Jsonl.Str s) -> Some s
  | Some _ | None -> None

let bool_field e name =
  match List.assoc_opt name e.fields with
  | Some (Jsonl.Bool b) -> Some b
  | Some _ | None -> None

let entry_of_line ~line raw =
  match Jsonl.parse_line raw with
  | Error m -> Error (Fmt.str "line %d: %s" line m)
  | Ok fields ->
    let step =
      match List.assoc_opt "step" fields with
      | Some (Jsonl.Int n) -> n
      | Some _ | None -> -1
    in
    let ev =
      match List.assoc_opt "ev" fields with
      | Some (Jsonl.Str s) -> s
      | Some _ | None -> ""
    in
    if step < 0 then Error (Fmt.str "line %d: missing step index" line)
    else if ev = "" then Error (Fmt.str "line %d: missing ev kind" line)
    else Ok { step; ev; fields; line; raw }

let of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> go (i + 1) acc rest
    | raw :: rest ->
      (match entry_of_line ~line:i raw with
       | Error _ as e -> e
       | Ok entry -> go (i + 1) (entry :: acc) rest)
  in
  match go 1 [] lines with
  | Error _ as e -> e
  | Ok entries ->
    let by_step = Hashtbl.create (List.length entries) in
    List.iter (fun e -> Hashtbl.replace by_step e.step e) entries;
    Ok { entries; by_step }

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | s -> of_string s

let entries t = t.entries

let length t = List.length t.entries

let find_step t step = Hashtbl.find_opt t.by_step step

(* Does [e] name [name] in any resource-bearing field?  Flow lines
   carry structured [res_name]/[target_name]/[server_name] fields;
   warnings carry none of these, so this is an event-side notion. *)
let names_resource e name =
  let matches f = str_field e f = Some name in
  matches "res_name" || matches "target_name" || matches "server_name"

let first_naming t name =
  List.find_opt
    (fun e -> e.ev = "flow" && names_resource e name)
    t.entries

let events t =
  let space = Taint.Tagset.make_space () in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest when e.ev <> "flow" -> go acc rest
    | e :: rest ->
      (match Harrier.Events.of_fields space e.fields with
       | Ok ev -> go (ev :: acc) rest
       | Error m -> Error (Fmt.str "line %d: %s" e.line m))
  in
  go [] t.entries
