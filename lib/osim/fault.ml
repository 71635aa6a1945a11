type kind =
  | Errno of int
  | Short
  | Stall
  | Reset

let kind_name = function
  | Errno e -> String.lowercase_ascii (Abi.errno_name e)
  | Short -> "short"
  | Stall -> "stall"
  | Reset -> "reset"

type rule = {
  r_call : string option;
  r_res : string option;
  r_nth : int option;
  r_kind : kind;
}

type plan =
  | None_
  | Rules of rule list
  | Seeded of int

let none = None_

let seeded seed = Seeded seed

(* A seeded plan injects on about one applicable syscall in [seed_rate]. *)
let seed_rate = 16

(* ------------------------------------------------------------------ *)
(* SPEC syntax                                                         *)

let kind_of_string = function
  | "enoent" -> Ok (Errno Abi.enoent)
  | "eio" -> Ok (Errno Abi.eio)
  | "enomem" -> Ok (Errno Abi.enomem)
  | "eagain" -> Ok (Errno Abi.eagain)
  | "ebadf" -> Ok (Errno Abi.ebadf)
  | "econnreset" | "reset" -> Ok Reset
  | "short" -> Ok Short
  | "stall" -> Ok Stall
  | s -> Error (Fmt.str "unknown fault kind %S" s)

let ( let* ) = Result.bind

let parse_rule s =
  match String.index_opt s '=' with
  | None -> Error (Fmt.str "rule %S: expected CALL[@RES][#N]=KIND" s)
  | Some eq ->
    let lhs = String.sub s 0 eq in
    let rhs = String.sub s (eq + 1) (String.length s - eq - 1) in
    let* k = kind_of_string rhs in
    let lhs, nth =
      match String.rindex_opt lhs '#' with
      | None -> lhs, Ok None
      | Some h ->
        let n = String.sub lhs (h + 1) (String.length lhs - h - 1) in
        ( String.sub lhs 0 h,
          match int_of_string_opt n with
          | Some n when n >= 1 -> Ok (Some n)
          | Some _ | None ->
            Error (Fmt.str "rule %S: occurrence %S must be a positive int" s n)
        )
    in
    let* nth = nth in
    let call, res =
      match String.index_opt lhs '@' with
      | None -> lhs, None
      | Some a ->
        ( String.sub lhs 0 a,
          Some (String.sub lhs (a + 1) (String.length lhs - a - 1)) )
    in
    let* call =
      match call with
      | "" -> Error (Fmt.str "rule %S: empty syscall (use * for any)" s)
      | "*" -> Ok None
      | c -> Ok (Some c)
    in
    (match res with
     | Some "" -> Error (Fmt.str "rule %S: empty resource after @" s)
     | Some _ | None ->
       Ok { r_call = call; r_res = res; r_nth = nth; r_kind = k })

let parse spec =
  if String.trim spec = "" then Error "empty fault plan"
  else
    let rec go acc = function
      | [] -> Ok (Rules (List.rev acc))
      | r :: rest ->
        let* rule = parse_rule (String.trim r) in
        go (rule :: acc) rest
    in
    go [] (String.split_on_char ',' spec)

let rule_to_string r =
  Fmt.str "%s%s%s=%s"
    (Option.value r.r_call ~default:"*")
    (match r.r_res with Some p -> "@" ^ p | None -> "")
    (match r.r_nth with Some n -> Fmt.str "#%d" n | None -> "")
    (kind_name r.r_kind)

let to_string = function
  | None_ -> "none"
  | Rules rs -> String.concat "," (List.map rule_to_string rs)
  | Seeded seed -> Fmt.str "seed:%d/rate:%d" seed seed_rate

(* ------------------------------------------------------------------ *)
(* Decision state                                                      *)

let is_substring ~sub s =
  let n = String.length sub and m = String.length s in
  if n = 0 then true
  else begin
    let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
    at 0
  end

type state = {
  plan : plan;
  counts : (string, int) Hashtbl.t;  (* "call|res" -> occurrences seen *)
}

let start plan = { plan; counts = Hashtbl.create 16 }

let active st = st.plan <> None_

(* Pure 62-bit mixer (splitmix-flavoured); determinism matters, quality
   only needs to be good enough to spread injections around. *)
let mix h x =
  let h = (h lxor x) * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 31)) land max_int

let mix_string h s =
  let acc = ref (mix h (String.length s)) in
  String.iter (fun c -> acc := mix !acc (Char.code c)) s;
  !acc

(* Fault kinds that make sense for each call; seeded plans only draw
   from this set so every injection is a fault the real syscall could
   plausibly report. *)
let applicable ~call ~sock =
  match call with
  | "SYS_open" | "SYS_creat" ->
    [ Errno Abi.enoent; Errno Abi.eio; Errno Abi.enomem ]
  | ("SYS_read" | "SYS_write") when sock -> [ Reset; Short; Stall ]
  | "SYS_read" | "SYS_write" -> [ Errno Abi.eio; Short ]
  | "SYS_clone" -> [ Errno Abi.eagain ]
  | "SYS_connect" -> [ Reset; Stall ]
  | _ -> []

let decide st ~call ~res ~sock =
  match st.plan with
  | None_ -> None
  | plan ->
    let key = call ^ "|" ^ res in
    let n = 1 + Option.value (Hashtbl.find_opt st.counts key) ~default:0 in
    Hashtbl.replace st.counts key n;
    (match plan with
     | None_ -> None
     | Rules rs ->
       List.find_map
         (fun r ->
           let call_ok =
             match r.r_call with None -> true | Some c -> String.equal c call
           in
           let res_ok =
             match r.r_res with
             | None -> true
             | Some sub -> is_substring ~sub res
           in
           let nth_ok =
             match r.r_nth with None -> true | Some want -> want = n
           in
           if call_ok && res_ok && nth_ok then Some r.r_kind else None)
         rs
     | Seeded seed ->
       (match applicable ~call ~sock with
        | [] -> None
        | kinds ->
          let h = mix (mix_string (mix_string (mix 7 seed) call) res) n in
          if h mod seed_rate <> 0 then None
          else Some (List.nth kinds ((h lsr 16) mod List.length kinds))))
