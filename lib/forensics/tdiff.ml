(* Trace comparison: the first divergent line of two traces, with the
   step index parsed from it.  The golden harness, the determinism
   tests and [hth_trace diff] all ask this one question, so a CI
   failure and an analyst's diff report the same line. *)

type t = {
  line : int;
  step : int option;  (* step index parsed from the first divergent line *)
  expected : string option;  (* [None] = the expected side ran out *)
  actual : string option;  (* [None] = the actual side ran out *)
}

let split_lines s =
  (* split on '\n', dropping the trailing empty field a final newline
     produces, so "a\nb\n" and "a\nb" compare as the same two lines;
     [first_divergence] reports the byte difference past the end *)
  match String.split_on_char '\n' s with
  | [] -> []
  | parts ->
    (match List.rev parts with
     | "" :: rest -> List.rev rest
     | _ -> parts)

let step_of_line raw =
  match Jsonl.parse_line raw with
  | Error _ -> None
  | Ok fields ->
    (match List.assoc_opt "step" fields with
     | Some (Jsonl.Int n) -> Some n
     | Some _ | None -> None)

let divergence line expected actual =
  let step =
    match expected, actual with
    | Some l, _ | None, Some l -> step_of_line l
    | None, None -> None
  in
  Some { line; step; expected; actual }

let first_divergence ~expected ~actual =
  if String.equal expected actual then None
  else
    let rec go n e a =
      match e, a with
      | [], [] ->
        (* same lines, different bytes (e.g. trailing newline) *)
        divergence n None None
      | [], x :: _ -> divergence n None (Some x)
      | x :: _, [] -> divergence n (Some x) None
      | x :: e', y :: a' ->
        if String.equal x y then go (n + 1) e' a'
        else divergence n (Some x) (Some y)
    in
    go 1 (split_lines expected) (split_lines actual)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let diff_files ~expected ~actual =
  match read_file expected, read_file actual with
  | exception Sys_error m -> Error m
  | e, a -> Ok (first_divergence ~expected:e ~actual:a)

let pp ~a_name ~b_name ppf d =
  Fmt.pf ppf "@[<v>traces diverge at line %d%s@," d.line
    (match d.step with
     | Some s -> Fmt.str " (step %d)" s
     | None -> "");
  (match d.expected with
   | Some l -> Fmt.pf ppf "  %s: %s@," a_name l
   | None -> Fmt.pf ppf "  %s: <no line>@," a_name);
  (match d.actual with
   | Some l -> Fmt.pf ppf "  %s: %s@," b_name l
   | None -> Fmt.pf ppf "  %s: <no line>@," b_name);
  Fmt.pf ppf "@]"

let report ~name d =
  name ^ ": " ^ Fmt.str "%a" (pp ~a_name:"golden" ~b_name:"live") d

let compare_file ~golden ~actual =
  match read_file golden with
  | exception Sys_error msg -> Error (Fmt.str "%s: unreadable (%s)" golden msg)
  | expected ->
    (match first_divergence ~expected ~actual with
     | None -> Ok ()
     | Some d -> Error (report ~name:golden d))
