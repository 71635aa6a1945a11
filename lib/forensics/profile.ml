(* Offline profiling from the counters a session embeds at the end of
   its trace ("counter" and "hot_block" lines) plus the event stream
   itself.  Because the embedded lines are the live run's own
   [Engine.result.stats] / [hot_blocks], the offline numbers
   reproduce [hth_run --stats] exactly. *)

type t = {
  steps : int;
  phases : (string * int * int) list;  (* name, first step, last step *)
  counters : (string * int) list;  (* embedded, name-sorted *)
  syscalls : (string * int) list;  (* osim.syscalls.<name> members *)
  events_by_kind : (string * int) list;  (* from flow lines *)
  hot_blocks : (int * int * int) list;  (* pid, addr, count *)
}

let prefix = "osim.syscalls."

let of_trace trace =
  let entries = Reader.entries trace in
  let steps = List.length entries in
  let counters =
    List.filter_map
      (fun (e : Reader.entry) ->
        if e.ev <> "counter" then None
        else
          match Reader.str_field e "name", Reader.int_field e "value" with
          | Some n, Some v -> Some (n, v)
          | _ -> None)
      entries
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let syscalls =
    List.filter_map
      (fun (n, v) ->
        let pl = String.length prefix in
        if String.length n > pl && String.sub n 0 pl = prefix then
          Some (String.sub n pl (String.length n - pl), v)
        else None)
      counters
  in
  let hot_blocks =
    List.filter_map
      (fun (e : Reader.entry) ->
        if e.ev <> "hot_block" then None
        else
          match
            ( Reader.int_field e "pid", Reader.int_field e "addr",
              Reader.int_field e "count" )
          with
          | Some pid, Some addr, Some count -> Some (pid, addr, count)
          | _ -> None)
      entries
  in
  let kinds = Hashtbl.create 8 in
  List.iter
    (fun (e : Reader.entry) ->
      if e.ev = "flow" then
        match Reader.str_field e "kind" with
        | Some k ->
          Hashtbl.replace kinds k
            (1 + Option.value (Hashtbl.find_opt kinds k) ~default:0)
        | None -> ())
    entries;
  let events_by_kind =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  (* phases partition the step line: each runs to the line before the
     next phase marker (or to the end of the trace) *)
  let phase_starts =
    List.filter_map
      (fun (e : Reader.entry) ->
        if e.ev = "phase" then
          Option.map (fun n -> n, e.step) (Reader.str_field e "name")
        else None)
      entries
  in
  let last_step =
    List.fold_left (fun m (e : Reader.entry) -> max m e.step) 0 entries
  in
  let rec with_ends = function
    | [] -> []
    | [ (name, start) ] -> [ name, start, last_step ]
    | (name, start) :: (((_, next) :: _) as rest) ->
      (name, start, next - 1) :: with_ends rest
  in
  { steps; phases = with_ends phase_starts; counters; syscalls;
    events_by_kind; hot_blocks }

let sorted_desc kvs =
  List.sort
    (fun (a, va) (b, vb) ->
      match Int.compare vb va with 0 -> String.compare a b | c -> c)
    kvs

let pp ?(top = 10) ppf p =
  Fmt.pf ppf "@[<v>trace: %d steps@," p.steps;
  if p.phases <> [] then begin
    Fmt.pf ppf "phases:@,";
    List.iter
      (fun (name, a, b) ->
        Fmt.pf ppf "  %-8s steps %d..%d (%d lines)@," name a b (b - a + 1))
      p.phases
  end;
  if p.events_by_kind <> [] then begin
    Fmt.pf ppf "events:@,";
    List.iter
      (fun (k, v) -> Fmt.pf ppf "  %-10s %d@," k v)
      (sorted_desc p.events_by_kind)
  end;
  if p.syscalls <> [] then begin
    Fmt.pf ppf "syscall mix:@,";
    List.iter
      (fun (k, v) -> Fmt.pf ppf "  %-16s %d@," k v)
      (sorted_desc p.syscalls)
  end;
  if p.hot_blocks <> [] then begin
    Fmt.pf ppf "hot blocks (top %d):@," top;
    List.iteri
      (fun i (pid, addr, count) ->
        if i < top then Fmt.pf ppf "  pid %d 0x%06x %d@," pid addr count)
      p.hot_blocks
  end;
  if p.counters = [] then
    Fmt.pf ppf
      "no embedded counters (trace predates profile embedding?)@,";
  Fmt.pf ppf "@]"
