let manifest_name = "MANIFEST.jsonl"
let pack_name = "segments.pack"

let sanitize_run s =
  String.map (function '/' | ' ' -> '_' | c -> c) s

type t = {
  t_dir : string;
  t_oc : out_channel;  (* the manifest *)
  t_pack : out_channel;
  mutable t_pack_end : int;
      (* the pack's size: where the next run's bytes land.  Tracked
         here, not read from [pos_out], which an append-mode channel
         starts at 0 whatever the file holds. *)
  t_runs : (string, unit) Hashtbl.t;
  mutable t_total : int;
  mutable t_appended : int;
  mutable t_raw_bytes : int;  (* appended through this handle *)
  mutable t_framed_bytes : int;
}

let dir t = t.t_dir
let total t = t.t_total
let appended t = t.t_appended
let raw_bytes t = t.t_raw_bytes
let framed_bytes t = t.t_framed_bytes

let ensure_dir path =
  if not (Sys.file_exists path) then Sys.mkdir path 0o755
  else if not (Sys.is_directory path) then
    raise (Sys_error (path ^ ": not a directory"))

let load_manifest path =
  if not (Sys.file_exists path) then Ok []
  else
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.fold_left
         (fun acc line ->
           match acc with
           | Error _ -> acc
           | Ok entries -> (
             match Manifest.parse line with
             | Ok e -> Ok (e :: entries)
             | Error reason ->
               Error (Hth.Error.Load_failure { path; reason })))
         (Ok [])
    |> Result.map List.rev

let open_append path =
  open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path

let open_ dir =
  let fail reason = Error (Hth.Error.Load_failure { path = dir; reason }) in
  match
    ensure_dir dir;
    load_manifest (Filename.concat dir manifest_name)
  with
  | exception Sys_error reason -> fail reason
  | Error _ as e -> e
  | Ok entries -> (
    match
      let t_oc = open_append (Filename.concat dir manifest_name) in
      let t_pack = open_append (Filename.concat dir pack_name) in
      (t_oc, t_pack, out_channel_length t_pack)
    with
    | exception Sys_error reason -> fail reason
    | t_oc, t_pack, t_pack_end ->
      let t_runs = Hashtbl.create 64 in
      List.iter (fun (e : Manifest.entry) ->
          Hashtbl.replace t_runs e.e_run ()) entries;
      Ok
        { t_dir = dir; t_oc; t_pack; t_pack_end; t_runs;
          t_total = List.length entries; t_appended = 0; t_raw_bytes = 0;
          t_framed_bytes = 0 })

let fresh_run_id t wanted =
  let wanted = sanitize_run wanted in
  if not (Hashtbl.mem t.t_runs wanted) then wanted
  else begin
    let n = ref 2 in
    while Hashtbl.mem t.t_runs (Printf.sprintf "%s~%d" wanted !n) do
      incr n
    done;
    Printf.sprintf "%s~%d" wanted !n
  end

let locator offset = Printf.sprintf "%s#%d" pack_name offset

let append t ~entry ~sealed =
  let run = fresh_run_id t entry.Manifest.e_run in
  let offset = t.t_pack_end in
  output_string t.t_pack sealed.Segment.s_bytes;
  flush t.t_pack;
  t.t_pack_end <- offset + String.length sealed.Segment.s_bytes;
  let entry =
    { entry with
      Manifest.e_run = run; e_steps = sealed.Segment.s_steps;
      e_raw_bytes = sealed.Segment.s_raw_bytes;
      e_framed_bytes = String.length sealed.Segment.s_bytes;
      e_segment = locator offset }
  in
  (* the manifest line publishes the run, and only once its bytes are
     flushed to the pack: a kill before this point leaves an unlocated
     tail that the next append writes past, never a torn run *)
  output_string t.t_oc (Manifest.render entry);
  flush t.t_oc;
  Hashtbl.replace t.t_runs run ();
  t.t_total <- t.t_total + 1;
  t.t_appended <- t.t_appended + 1;
  t.t_raw_bytes <- t.t_raw_bytes + sealed.Segment.s_raw_bytes;
  t.t_framed_bytes <- t.t_framed_bytes + String.length sealed.Segment.s_bytes;
  entry

(* The one rule from a session outcome to its manifest entry: a typed
   failure is stored too, as [error:<kind>] that never matches, so the
   warehouse is a complete account of what was run. *)
let record t ~run ~scenario ~policy ?seed ?fault ~expected ~matches outcome
    (sealed : Segment.sealed) =
  let verdict, matched, warnings, distinct, degraded =
    match outcome with
    | Ok (r : Hth.Engine.result) ->
      let v = Hth.Report.verdict r in
      ( Hth.Report.verdict_label v, matches v, List.length r.warnings,
        List.length r.distinct, r.degraded <> [] )
    | Error e -> "error:" ^ Hth.Error.kind e, false, 0, 0, false
  in
  append t ~sealed
    ~entry:
      { Manifest.e_run = run; e_scenario = scenario; e_policy = policy;
        e_seed = seed; e_fault = fault; e_verdict = verdict;
        e_expected = expected; e_match = matched; e_warnings = warnings;
        e_distinct = distinct; e_degraded = degraded;
        (* the size and segment fields are [append]'s *)
        e_steps = 0; e_raw_bytes = 0; e_framed_bytes = 0;
        e_digest = Manifest.digest sealed.s_index.ix_counters;
        e_segment = "" }

let close t =
  close_out_noerr t.t_pack;
  close_out_noerr t.t_oc

(* ------------------------------------------------------------------ *)
(* Read side                                                           *)

type view = { v_dir : string; v_entries : Manifest.entry list }

let load dir =
  let path = Filename.concat dir manifest_name in
  if not (Sys.file_exists dir) then
    Error
      (Hth.Error.Load_failure { path = dir; reason = "no such store directory" })
  else if not (Sys.file_exists path) then
    Error (Hth.Error.Load_failure { path; reason = "no manifest in store" })
  else
    match load_manifest path with
    | Error _ as e -> e
    | Ok v_entries -> Ok { v_dir = dir; v_entries }

let find view run =
  match
    List.find_opt (fun (e : Manifest.entry) -> e.e_run = run) view.v_entries
  with
  | Some _ as hit -> hit
  | None ->
    (* convenience: accept the raw scenario name if it sanitizes to a
       unique run id *)
    let s = sanitize_run run in
    List.find_opt (fun (e : Manifest.entry) -> e.e_run = s) view.v_entries

(* A locator's offset: 1 to 15 decimal digits, so that neither it nor
   offset + length can overflow. *)
let locator_offset segment =
  let prefix = pack_name ^ "#" in
  if not (String.starts_with ~prefix segment) then None
  else
    let pl = String.length prefix in
    let s = String.sub segment pl (String.length segment - pl) in
    let n = String.length s in
    if n = 0 || n > 15 || not (String.for_all (fun c -> c >= '0' && c <= '9') s)
    then None
    else Some (int_of_string s)

(* The run's bytes: [e_framed_bytes] from its locator's offset, which
   must lie inside the pack. *)
let segment_bytes view (entry : Manifest.entry) =
  let pack = Filename.concat view.v_dir pack_name in
  let fail path reason = Error (Hth.Error.Load_failure { path; reason }) in
  match locator_offset entry.e_segment with
  | None ->
    fail pack
      (Printf.sprintf "run %s: %S is not a %s locator" entry.e_run
         entry.e_segment pack_name)
  | Some offset -> (
    let path = Filename.concat view.v_dir entry.e_segment in
    let len = entry.e_framed_bytes in
    match
      In_channel.with_open_bin pack (fun ic ->
          let size = In_channel.length ic |> Int64.to_int in
          if len <= 0 || offset > size || len > size - offset then None
          else begin
            In_channel.seek ic (Int64.of_int offset);
            In_channel.really_input_string ic len
          end)
    with
    | Some bytes -> Ok (path, bytes)
    | None ->
      fail path
        (Printf.sprintf "run %s: %d bytes at this offset are not in the pack"
           entry.e_run len)
    | exception Sys_error reason -> fail path reason)

let raw_trace view entry =
  match segment_bytes view entry with
  | Error _ as e -> e
  | Ok (path, bytes) ->
    Result.map
      (fun (l : Segment.loaded) -> l.l_raw)
      (Segment.load ~path bytes)

let read_index view entry =
  match segment_bytes view entry with
  | Error _ as e -> e
  | Ok (path, bytes) ->
    Result.map
      (fun (ix, _, _) -> ix)
      (Segment.load_index ~path bytes)
