(* The session engine: compile-once shared artifacts plus per-session
   world construction.

   An [Engine.t] holds everything about running sessions that does not
   depend on a particular run: the monitor configuration, the trust
   database, the auto-kill level and the policy compiled once (for the
   textual CLIPS policy that is the parsed rule forms).  All of it is
   immutable, so one engine serves any number of domains.  [run] builds
   the per-run state: Secpert instance, file system, network, kernel
   (whose loader links the images), monitor (judging with that
   instance) and a fresh taint space. *)

type setup = {
  programs : Binary.Image.t list;
  files : (string * string) list;
  hosts : (string * int) list;
  servers : (string * int * Osim.Net.actor) list;
  incoming : (int * Osim.Net.actor) list;
  user_input : string list;
  main : string;
  argv : string list;
  env : string list;
  max_ticks : int;
}

let localhost_ip = 0x0100007F

let setup ?(programs = []) ?(files = []) ?(hosts = []) ?(servers = [])
    ?(incoming = []) ?(user_input = []) ?argv ?(env = [])
    ?(max_ticks = 2_000_000) ~main () =
  let argv = match argv with Some a -> a | None -> [ main ] in
  { programs; files; hosts; servers; incoming; user_input; main; argv; env;
    max_ticks }

(* One tier, the interpreter: only [tc_interpreted] is non-zero.  The
   record stays because perfbench reads it. *)
type tier_counts = {
  tc_interpreted : int;
  tc_compiled : int;
  tc_summarized : int;
  tc_deopt : int;
}

type result = {
  os_report : Osim.Kernel.report;
  events : Harrier.Events.t list;
  warnings : Secpert.Warning.t list;
  distinct : Secpert.Warning.t list;
  max_severity : Secpert.Severity.t option;
  event_count : int;
  degraded : string list;
  stats : Obs.snapshot;
  hot_blocks : (int * int * int) list;
  tier : tier_counts;
}

(* ------------------------------------------------------------------ *)
(* Supervisor budgets                                                  *)

type budgets = {
  b_ticks : int option;
  b_shadow_pages : int option;
  b_warnings : int option;
}

let no_budgets = { b_ticks = None; b_shadow_pages = None; b_warnings = None }

let budget_keys = "ticks, shadow-pages, warnings"

let apply_budget b spec =
  match String.index_opt spec '=' with
  | None -> Error (Fmt.str "budget %S: expected KEY=N (keys: %s)" spec
                     budget_keys)
  | Some eq ->
    let key = String.sub spec 0 eq in
    let v = String.sub spec (eq + 1) (String.length spec - eq - 1) in
    (match int_of_string_opt v with
     | Some n when n >= 1 ->
       (match key with
        | "ticks" -> Ok { b with b_ticks = Some n }
        | "shadow-pages" -> Ok { b with b_shadow_pages = Some n }
        | "warnings" -> Ok { b with b_warnings = Some n }
        | k ->
          Error (Fmt.str "budget %S: unknown key %S (keys: %s)" spec k
                   budget_keys))
     | Some _ | None ->
       Error (Fmt.str "budget %S: %S must be a positive int" spec v))

let parse_budgets specs =
  List.fold_left
    (fun acc spec -> Result.bind acc (fun b -> apply_budget b spec))
    (Ok no_budgets) specs

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)

type t = {
  e_monitor_config : Harrier.Monitor.config;
  e_trust : Secpert.Trust.t option;
  e_auto_kill : Secpert.Severity.t option;
  e_compiled : Secpert.System.compiled;
  e_keep_events : bool;
}

let create ?monitor_config ?trust ?auto_kill
    ?(policy = Secpert.System.Native) ?(keep_events = true) () =
  { e_monitor_config =
      Option.value monitor_config ~default:Harrier.Monitor.default_config;
    e_trust = trust;
    e_auto_kill = auto_kill;
    e_compiled = Secpert.System.compile policy;
    e_keep_events = keep_events }

(* ------------------------------------------------------------------ *)
(* Per-session world construction                                      *)

(* Per-phase wall-clock histograms (stats only — never trace data). *)
let h_build = Obs.Histogram.make "session.phase.build"
let h_spawn = Obs.Histogram.make "session.phase.spawn"
let h_run = Obs.Histogram.make "session.phase.run"

let phase name h f =
  if Obs.Trace.enabled () then Obs.Trace.emit "phase" [ "name", Obs.Str name ];
  Obs.Span.time h f

let build_world s =
  let fs = Osim.Fs.create () in
  List.iter (fun img -> Osim.Fs.install_image fs img) s.programs;
  List.iter (fun (path, data) -> Osim.Fs.install fs path data) s.files;
  let net = Osim.Net.create () in
  Osim.Net.add_host net "LocalHost" localhost_ip;
  List.iter (fun (name, ip) -> Osim.Net.add_host net name ip) s.hosts;
  (* the guest libc resolves names against this database *)
  Osim.Fs.install fs "/etc/hosts.db" (Osim.Net.hosts_db net);
  List.iter
    (fun (host, port, actor) -> Osim.Net.add_server net ~host ~port actor)
    s.servers;
  List.iter
    (fun (port, actor) -> Osim.Net.add_incoming net ~port actor)
    s.incoming;
  fs, net

(* World boot and program spawn, shared between the monitored and
   unmonitored paths so their wiring cannot drift. *)
let boot ?fault s =
  let fs, net = build_world s in
  Osim.Kernel.create ~fs ~net ~user_input:s.user_input ?fault ()

let spawn_main kernel s =
  match Osim.Kernel.spawn ~env:s.env kernel ~path:s.main ~argv:s.argv with
  | Ok p -> Ok p
  | Error msg ->
    Stdlib.Error (Error.Load_failure { path = s.main; reason = msg })

(* One increment per session under [session.outcome.<kind>]:
   ok / degraded for completed runs, the {!Error.kind} otherwise. *)
let note_outcome kind =
  Obs.Counter.incr (Obs.Counter.labeled "session.outcome" kind)

let run_outcome_ambient eng ~budgets ~fault s =
  let before = Obs.snapshot () in
  let fail e =
    note_outcome (Error.kind e);
    Stdlib.Error e
  in
  let mcfg =
    let base = eng.e_monitor_config in
    match budgets.b_shadow_pages with
    | None -> base
    | Some n -> { base with Harrier.Monitor.shadow_page_budget = Some n }
  in
  match
    phase "build" h_build (fun () ->
        let secpert =
          try
            Secpert.System.create_from ?trust:eng.e_trust
              ?auto_kill:eng.e_auto_kill ?warning_cap:budgets.b_warnings
              ~compiled:eng.e_compiled ()
          with Failure msg -> raise (Error.Error_exn (Error.Policy_error msg))
        in
        let events_log = ref [] in
        let judge =
          if eng.e_keep_events then (fun e ->
              events_log := e :: !events_log;
              Secpert.System.handle_event secpert e)
          else Secpert.System.handle_event secpert
        in
        let kernel = boot ~fault s in
        let monitor = Harrier.Monitor.attach ~config:mcfg ~judge kernel in
        kernel, monitor, secpert, events_log)
  with
  | exception Error.Error_exn e -> fail e
  | exception e ->
    fail (Error.Crash { phase = "build"; exn = Printexc.to_string e })
  | kernel, monitor, secpert, events_log ->
    (match phase "spawn" h_spawn (fun () -> spawn_main kernel s) with
     | exception e ->
       fail (Error.Crash { phase = "spawn"; exn = Printexc.to_string e })
     | Error e -> fail e
     | Ok _ ->
       let max_ticks =
         match budgets.b_ticks with
         | Some n -> min s.max_ticks n
         | None -> s.max_ticks
       in
       (match phase "run" h_run (fun () -> Osim.Kernel.run kernel ~max_ticks)
        with
        | exception e ->
          fail (Error.Crash { phase = "run"; exn = Printexc.to_string e })
        | os_report ->
          (* A run that consumed its whole tick budget with processes
             still live was truncated, not completed: a dormant program
             whose trigger never arrived within the budget must come
             back degraded, never silently "clean and done". *)
          let live =
            List.filter
              (fun (_, _, st) ->
                match (st : Osim.Process.run_state) with
                | Exited _ | Killed _ -> false
                | Runnable | Sleeping _ | Waiting_io -> true)
              os_report.Osim.Kernel.rep_final
          in
          let truncated =
            if os_report.Osim.Kernel.rep_ticks >= max_ticks && live <> []
            then
              [ Fmt.str
                  "tick budget: run truncated at %d ticks with %d live \
                   process(es) — verdict covers the observed prefix only"
                  os_report.Osim.Kernel.rep_ticks (List.length live) ]
            else []
          in
          let degraded =
            Harrier.Monitor.degraded monitor
            @ Secpert.System.degraded secpert
            @ truncated
          in
          note_outcome (if degraded = [] then "ok" else "degraded");
          let stats_raw = Obs.diff ~before ~after:(Obs.snapshot ()) in
          (* Strategy counters measure {e how} the run was executed —
             taint-arena cache traffic, shadow fast-path hit rates — not
             what the guest did, so they are kept out of both
             [result.stats] and the trace's embedded profile.
             Guest-behaviour counters ([vm.instructions], [vm.blocks],
             [vm.fetch_cache.*], [osim.*], events, policy) stay. *)
          let strategy_counter n =
            let has_prefix p =
              String.length n >= String.length p
              && String.sub n 0 (String.length p) = p
            in
            has_prefix "taint." || has_prefix "harrier.shadow."
          in
          let stats =
            List.filter (fun (n, _) -> not (strategy_counter n)) stats_raw
          in
          let tier =
            { tc_interpreted =
                Option.value (List.assoc_opt "vm.blocks" stats) ~default:0;
              tc_compiled = 0; tc_summarized = 0; tc_deopt = 0 }
          in
          let hot_blocks = Harrier.Monitor.hot_blocks monitor ~limit:10 in
          (* Embed the per-run profile in the trace so offline analysis
             ([hth_trace profile]) reproduces the live [--stats] numbers
             from the file alone. *)
          if Obs.Trace.enabled () then begin
            List.iter
              (fun (n, v) ->
                Obs.Trace.emit "counter"
                  [ "name", Obs.Str n; "value", Obs.Int v ])
              stats;
            List.iter
              (fun (pid, addr, count) ->
                Obs.Trace.emit "hot_block"
                  [ "pid", Obs.Int pid; "addr", Obs.Int addr;
                    "count", Obs.Int count ])
              hot_blocks
          end;
          Ok
            { os_report;
              events = List.rev !events_log;
              warnings = Secpert.System.warnings secpert;
              distinct = Secpert.System.distinct_warnings secpert;
              max_severity = Secpert.System.max_severity secpert;
              event_count = Harrier.Monitor.event_count monitor;
              degraded;
              stats;
              hot_blocks;
              tier }))

(* [?trace] scopes a sink to this one session: installed before the
   first "phase" line, flushed and removed on every exit path.  Without
   it the ambient sink (whatever the caller installed) is used, so the
   existing golden-trace paths are unchanged.  [Obs.Trace.disable]
   removes the sink before it hands over the last chunk, so a writer
   that raises there still leaves the domain untraced; its failure
   fails a session that succeeded, and a failed session keeps its own
   error. *)
let run_outcome eng ?(budgets = no_budgets) ?(fault = Osim.Fault.none) ?trace s
    =
  match trace with
  | None -> run_outcome_ambient eng ~budgets ~fault s
  | Some target ->
    Obs.Trace.install target;
    let outcome =
      match run_outcome_ambient eng ~budgets ~fault s with
      | outcome -> outcome
      | exception e ->
        Obs.Trace.disable ();
        raise e
    in
    (match Obs.Trace.disable () with
     | () -> outcome
     | exception e when Result.is_ok outcome ->
       Error (Error.Crash { phase = "trace"; exn = Printexc.to_string e })
     | exception _ -> outcome)

let run eng ?budgets ?fault ?trace s =
  match run_outcome eng ?budgets ?fault ?trace s with
  | Ok r -> r
  | Error e -> raise (Error.Error_exn e)

let run_unmonitored s =
  let kernel = boot s in
  (match spawn_main kernel s with
   | Ok _ -> ()
   | Error e -> raise (Error.Error_exn e));
  Osim.Kernel.run kernel ~max_ticks:s.max_ticks
