type t = (string, int) Hashtbl.t

let create () : t = Hashtbl.create 16

(* newlines inside messages would break the persistence format *)
let escape s =
  String.concat "\\n" (String.split_on_char '\n' s)

let fingerprint (w : Secpert.Warning.t) =
  escape (w.rule ^ "|" ^ w.message)

let known t w = Hashtbl.mem t (fingerprint w)

let acknowledge t ws =
  List.iter
    (fun w ->
      let key = fingerprint w in
      let n = Option.value (Hashtbl.find_opt t key) ~default:0 in
      Hashtbl.replace t key (n + 1))
    ws

let novel t ws = List.filter (fun w -> not (known t w)) ws

let effective_verdict t (r : Engine.result) =
  match Secpert.Warning.max_severity (novel t r.warnings) with
  | None -> Report.Benign
  | Some s -> Report.Suspicious s

let to_string t =
  Hashtbl.fold (fun key n acc -> Fmt.str "%d\t%s\n" n key :: acc) t []
  |> List.sort compare
  |> String.concat ""

let of_string s =
  let t = create () in
  String.split_on_char '\n' s
  |> List.iter (fun line ->
         match String.index_opt line '\t' with
         | Some i ->
           let n = int_of_string_opt (String.sub line 0 i) in
           let key = String.sub line (i + 1) (String.length line - i - 1) in
           (match n with
            | Some n when key <> "" -> Hashtbl.replace t key n
            | _ -> ())
         | None -> ());
  t

let size = Hashtbl.length
