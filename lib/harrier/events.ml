type resource_kind = R_file | R_socket | R_stdio

type resource = {
  r_kind : resource_kind;
  r_name : string;
  r_origin : Taint.Tagset.t;
}

type meta = {
  pid : int;
  time : int;
  freq : int;
  addr : int;
  step : int;
}

type t =
  | Exec of { path : resource; argv : string list; meta : meta }
  | Clone of { total : int; recent : int; window : int; meta : meta }
  | Access of { call : string; res : resource; meta : meta }
  | Alloc of { requested : int; total : int; meta : meta }
  | Transfer of {
      call : string;
      data : Taint.Tagset.t;
      head : string;
      sources : (Taint.Source.t * Taint.Tagset.t) list;
      guard : (Taint.Source.t * Taint.Tagset.t) list;
          (** taint of the most recent tainted compare: the data that
              steered control flow to this transfer (trigger input) *)
      target : resource;
      via_server : resource option;
      len : int;
      meta : meta;
    }

let kind_name = function
  | R_file -> "FILE"
  | R_socket -> "SOCKET"
  | R_stdio -> "STDIO"

let meta_of = function
  | Exec { meta; _ } | Clone { meta; _ } | Access { meta; _ }
  | Alloc { meta; _ } | Transfer { meta; _ } -> meta

let pp_resource ppf r =
  Fmt.pf ppf "%s %S origin=%a" (kind_name r.r_kind) r.r_name Taint.Tagset.pp
    r.r_origin

let pp_meta ppf m =
  Fmt.pf ppf "pid=%d time=%d freq=%d addr=0x%x" m.pid m.time m.freq m.addr

let pp ppf = function
  | Exec { path; argv; meta } ->
    Fmt.pf ppf "@[exec %a argv=[%a] %a@]" pp_resource path
      Fmt.(list ~sep:(any " ") string)
      argv pp_meta meta
  | Clone { total; recent; window; meta } ->
    Fmt.pf ppf "@[clone total=%d recent=%d/%d %a@]" total recent window
      pp_meta meta
  | Access { call; res; meta } ->
    Fmt.pf ppf "@[%s %a %a@]" call pp_resource res pp_meta meta
  | Alloc { requested; total; meta } ->
    Fmt.pf ppf "@[brk requested=0x%x total=%d %a@]" requested total pp_meta
      meta
  | Transfer { call; data; target; via_server; len; meta; sources = _;
               head = _; guard = _ } ->
    Fmt.pf ppf "@[%s %d bytes data=%a -> %a%a %a@]" call len Taint.Tagset.pp
      data pp_resource target
      Fmt.(option (any " via server " ++ pp_resource))
      via_server pp_meta meta

let kinds = [| "exec"; "clone"; "access"; "alloc"; "transfer" |]

let kind_index = function
  | Exec _ -> 0
  | Clone _ -> 1
  | Access _ -> 2
  | Alloc _ -> 3
  | Transfer _ -> 4

let kind e = kinds.(kind_index e)

(* ------------------------------------------------------------------ *)
(* The "flow" line codec                                               *)

(* Structured values inside string fields use the printers' own
   syntax: a tag set is [Tagset.to_string] ([{FILE("a"), USER_INPUT}]),
   an annotated source list is [SRC<-TAGSET] items joined by [;], and
   argv is its items as OCaml string literals joined by spaces.  Every
   name is printed with [%S], so the quote-aware reader below
   round-trips arbitrary bytes, separators included.  The head is
   lowercase hex: it holds raw guest bytes, and the trace stays
   ASCII. *)

let hex_of s =
  let digits = "0123456789abcdef" in
  String.init
    (2 * String.length s)
    (fun i ->
      let c = Char.code s.[i / 2] in
      digits.[if i land 1 = 0 then c lsr 4 else c land 15])

let annotated_to_string l =
  String.concat ";"
    (List.map
       (fun (src, o) ->
         Taint.Source.to_string src ^ "<-" ^ Taint.Tagset.to_string o)
       l)

let to_fields e =
  let m = meta_of e in
  let resource prefix origin (r : resource) =
    [ prefix ^ "_kind", Obs.Str (kind_name r.r_kind);
      prefix ^ "_name", Obs.Str r.r_name;
      origin, Obs.Str (Taint.Tagset.to_string r.r_origin) ]
  in
  [ "kind", Obs.Str (kind e); "pid", Obs.Int m.pid; "tick", Obs.Int m.time;
    "freq", Obs.Int m.freq; "addr", Obs.Int m.addr ]
  @
  match e with
  | Exec { path; argv; _ } ->
    (("call", Obs.Str "SYS_execve") :: resource "res" "origin" path)
    @ [ "argv",
        Obs.Str (String.concat " " (List.map (Printf.sprintf "%S") argv)) ]
  | Access { call; res; _ } ->
    ("call", Obs.Str call) :: resource "res" "origin" res
  | Clone { total; recent; window; _ } ->
    [ "total", Obs.Int total; "recent", Obs.Int recent;
      "window", Obs.Int window ]
  | Alloc { requested; total; _ } ->
    [ "requested", Obs.Int requested; "total", Obs.Int total ]
  | Transfer { call; data; head; sources; guard; target; via_server; len; _ }
    ->
    (("call", Obs.Str call) :: resource "target" "target_origin" target)
    @ [ "data", Obs.Str (Taint.Tagset.to_string data); "len", Obs.Int len;
        "head", Obs.Str (hex_of head);
        "sources", Obs.Str (annotated_to_string sources);
        "guard", Obs.Str (annotated_to_string guard) ]
    @ Option.fold ~none:[] ~some:(resource "server" "server_origin")
        via_server

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* A cursor over one structured string field. *)
type cursor = { s : string; mutable i : int }

let at_end c = c.i >= String.length c.s

let looking_at c lit =
  let n = String.length lit in
  c.i + n <= String.length c.s && String.sub c.s c.i n = lit

let expect c lit =
  if looking_at c lit then c.i <- c.i + String.length lit
  else bad "expected %S at byte %d of %S" lit c.i c.s

(* An OCaml string literal, as [%S] prints it. *)
let quoted c =
  expect c "\"";
  let start = c.i in
  while (not (at_end c)) && c.s.[c.i] <> '"' do
    c.i <- c.i + if c.s.[c.i] = '\\' then 2 else 1
  done;
  if at_end c then bad "unterminated string in %S" c.s;
  c.i <- c.i + 1;
  let body = String.sub c.s start (c.i - 1 - start) in
  try Scanf.unescaped body
  with Scanf.Scan_failure _ | Failure _ | End_of_file ->
    bad "bad escape in %S" body

(* [sep]-separated [item]s, up to the end of the cursor or a ['}']. *)
let items sep item c =
  let rec more acc =
    let acc = item c :: acc in
    if looking_at c sep then (expect c sep; more acc) else List.rev acc
  in
  if at_end c || looking_at c "}" then [] else more []

let source c =
  let start = c.i in
  while
    (not (at_end c))
    && (match c.s.[c.i] with 'A' .. 'Z' | '_' -> true | _ -> false)
  do
    c.i <- c.i + 1
  done;
  let named k =
    expect c "(";
    let n = quoted c in
    expect c ")";
    k n
  in
  match String.sub c.s start (c.i - start) with
  | "USER_INPUT" -> Taint.Source.User_input
  | "HARDWARE" -> Taint.Source.Hardware
  | "FILE" -> named (fun n -> Taint.Source.File n)
  | "SOCKET" -> named (fun n -> Taint.Source.Socket n)
  | "BINARY" -> named (fun n -> Taint.Source.Binary n)
  | w -> bad "bad source %S at byte %d of %S" w start c.s

let tagset sp c =
  expect c "{";
  let srcs = items ", " source c in
  expect c "}";
  Taint.Tagset.of_list sp srcs

let annotated sp c =
  let item c =
    let src = source c in
    expect c "<-";
    src, tagset sp c
  in
  items ";" item c

(* Run [p] over the whole of [s]. *)
let whole p s =
  let c = { s; i = 0 } in
  let v = p c in
  if not (at_end c) then bad "trailing bytes at %d of %S" c.i s;
  v

let of_hex s =
  let n = String.length s in
  if n land 1 = 1 then bad "odd-length head %S" s;
  let nibble ch =
    match ch with
    | '0' .. '9' -> Char.code ch - Char.code '0'
    | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
    | _ -> bad "bad hex digit %C in head" ch
  in
  String.init (n / 2) (fun i ->
      Char.chr ((nibble s.[2 * i] lsl 4) lor nibble s.[(2 * i) + 1]))

let resource_kind_of = function
  | "FILE" -> R_file
  | "SOCKET" -> R_socket
  | "STDIO" -> R_stdio
  | k -> bad "bad resource kind %S" k

let of_fields sp fields =
  let find k =
    match List.assoc_opt k fields with
    | Some v -> v
    | None -> bad "missing field %S" k
  in
  let int k =
    match find k with Obs.Int n -> n | _ -> bad "field %S is not an int" k
  in
  let str k =
    match find k with Obs.Str s -> s | _ -> bad "field %S is not a string" k
  in
  let tags k = whole (tagset sp) (str k) in
  let resource prefix origin =
    { r_kind = resource_kind_of (str (prefix ^ "_kind"));
      r_name = str (prefix ^ "_name"); r_origin = tags origin }
  in
  try
    let meta =
      { pid = int "pid"; time = int "tick"; freq = int "freq";
        addr = int "addr"; step = int "step" }
    in
    Ok
      (match str "kind" with
       | "exec" ->
         Exec
           { path = resource "res" "origin";
             argv = whole (items " " quoted) (str "argv"); meta }
       | "access" ->
         Access { call = str "call"; res = resource "res" "origin"; meta }
       | "clone" ->
         Clone
           { total = int "total"; recent = int "recent";
             window = int "window"; meta }
       | "alloc" ->
         Alloc { requested = int "requested"; total = int "total"; meta }
       | "transfer" ->
         Transfer
           { call = str "call"; data = tags "data"; head = of_hex (str "head");
             sources = whole (annotated sp) (str "sources");
             guard = whole (annotated sp) (str "guard");
             target = resource "target" "target_origin";
             via_server =
               (if List.mem_assoc "server_kind" fields then
                  Some (resource "server" "server_origin")
                else None);
             len = int "len"; meta }
       | k -> bad "unknown event kind %S" k)
  with Bad m -> Error m
