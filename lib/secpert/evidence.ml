(* Per-warning forensic evidence: references to the working-memory
   facts the firing rule matched and the taint-classified resources the
   policy action looked at.  Everything is recorded as plain strings
   and ints so a trace consumer can reconstruct the causal chain from a
   JSONL trace alone, with no live engine and no guest re-execution. *)

type fact_ref = {
  fr_template : string;
  fr_id : int;
  fr_step : int;
}

type origin_ref = {
  og_role : string;
  og_type : string;
  og_name : string;
  og_origin_type : string;
  og_origin_name : string;
}

type t = {
  facts : fact_ref list;
  origins : origin_ref list;
}

let is_empty e = e.facts = [] && e.origins = []

let of_fact (f : Expert.Fact.t) =
  let step =
    match Expert.Fact.slot f "step" with
    | Some (Expert.Value.Int n) -> n
    | Some _ | None -> -1
  in
  { fr_template = f.template; fr_id = f.id; fr_step = step }

let origin ~role ~otype ~name ~origin_type ~origin_name =
  { og_role = role; og_type = otype; og_name = name;
    og_origin_type = origin_type; og_origin_name = origin_name }

(* Wire format (embedded in "warning" trace lines):
   facts    "data_transfer#12@24,transfer_source#13@24"  (tpl#id@step)
   origins  "source=FILE:/f<-SOCKET:evil:80;target=FILE:/x<-BINARY:/m"
   A reference's role ends at its first '=' and each TYPE at its first
   ':', so '=' and ':' inside names (host:port) need no escape.  Names
   are the only text a guest chooses, so in a name '\', ';' and the '<'
   of "<-" are written after a '\': no name can end its reference or
   its half early and pass itself off as another origin.  A name
   without them is written as is. *)

let fact_ref_to_string r =
  Fmt.str "%s#%d@%d" r.fr_template r.fr_id r.fr_step

let facts_to_string e =
  String.concat "," (List.map fact_ref_to_string e.facts)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iteri
    (fun i c ->
      if c = '\\' || c = ';'
         || (c = '<' && i + 1 < String.length s && s.[i + 1] = '-')
      then Buffer.add_char b '\\';
      Buffer.add_char b c)
    s;
  Buffer.contents b

let origin_ref_to_string o =
  Fmt.str "%s=%s:%s<-%s:%s" o.og_role o.og_type (escape o.og_name)
    o.og_origin_type (escape o.og_origin_name)

let origins_to_string e =
  String.concat ";" (List.map origin_ref_to_string e.origins)

(* Parsing is lenient: a malformed part is dropped, never raised. *)

let split_first ~on s =
  match String.index_opt s on with
  | None -> None
  | Some i ->
    Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let parse_fact_ref part =
  match split_first ~on:'#' part with
  | None -> None
  | Some (template, rest) -> (
    match split_first ~on:'@' rest with
    | None -> None
    | Some (id, step) -> (
      match int_of_string_opt id, int_of_string_opt step with
      | Some fr_id, Some fr_step ->
        Some { fr_template = template; fr_id; fr_step }
      | _ -> None))

let parse_facts s = List.filter_map parse_fact_ref (String.split_on_char ',' s)

(* [s] cut at each [sep] that no '\' escapes; escapes are kept. *)
let split_unescaped ~sep s =
  let n = String.length s and m = String.length sep in
  let at i = i + m <= n && String.sub s i m = sep in
  let rec go start i acc =
    if i >= n then List.rev (String.sub s start (n - start) :: acc)
    else if s.[i] = '\\' then go start (i + 2) acc
    else if at i then go (i + m) (i + m) (String.sub s start (i - start) :: acc)
    else go start (i + 1) acc
  in
  go 0 0 []

let unescape s =
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i < String.length s then begin
      let i = if s.[i] = '\\' && i + 1 < String.length s then i + 1 else i in
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

let parse_typed s =
  match split_first ~on:':' s with
  | None -> s, ""
  | Some (t, n) -> t, unescape n

let parse_origin_ref part =
  match split_first ~on:'=' part with
  | None -> None
  | Some (role, rest) ->
    let left, right =
      match split_unescaped ~sep:"<-" rest with
      | [] -> "", ""
      | [ l ] -> l, ""
      | l :: r -> l, String.concat "<-" r
    in
    let og_type, og_name = parse_typed left in
    let og_origin_type, og_origin_name = parse_typed right in
    Some { og_role = role; og_type; og_name; og_origin_type; og_origin_name }

let parse_origins s =
  if s = "" then []
  else List.filter_map parse_origin_ref (split_unescaped ~sep:";" s)

let pp ppf e =
  Fmt.pf ppf "@[facts=[%s] origins=[%s]@]" (facts_to_string e)
    (origins_to_string e)
