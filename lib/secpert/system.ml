type policy = Native | Clips

(* A policy prepared for installation into many engines.  For [Clips]
   this holds the parsed rule forms, so the textual policy is parsed
   once per engine-lifetime rather than once per session; for [Native]
   there is nothing to precompute (rule closures capture per-session
   context and are cheap to build). *)
type compiled = { c_policy : policy; c_forms : Expert.Clips.installer list }

let compile = function
  | Native -> { c_policy = Native; c_forms = [] }
  | Clips -> { c_policy = Clips; c_forms = Policy_clips.compile () }

type t = {
  engine : Expert.Engine.t;
  trust : Trust.t;
  policy : policy;
  auto_kill : Severity.t option;
  warning_cap : int;  (* max stored warnings (max_int = unbounded) *)
  mutable warnings : Warning.t list;  (* newest first; capped *)
  mutable fresh : Warning.t list;  (* warnings of the event in flight *)
  mutable count : int;  (* total raised, stored or not *)
  mutable max_sev : Severity.t option;  (* over every warning raised *)
  mutable dropped : int;  (* raised but not stored (cap) *)
}

let c_warnings = Obs.Counter.make "secpert.warnings"
let c_dropped = Obs.Counter.make "secpert.warnings.dropped"

(* [secpert.warnings.<severity>], made once *)
let c_severity =
  let c s = Obs.Counter.labeled "secpert.warnings" (Severity.label s) in
  let low = c Severity.Low and medium = c Severity.Medium
  and high = c Severity.High in
  function Severity.Low -> low | Medium -> medium | High -> high

let create_from ?(trust = Trust.default) ?auto_kill ?warning_cap ~compiled
    () =
  let engine = Expert.Engine.create () in
  Facts.deftemplates engine;
  let t =
    { engine; trust; policy = compiled.c_policy; auto_kill;
      warning_cap =
        (match warning_cap with Some n -> max 0 n | None -> max_int);
      warnings = []; fresh = []; count = 0; max_sev = None; dropped = 0 }
  in
  let ctx =
    { Context.trust;
      warn =
        (fun w ->
          (* attach the firing activation's matched facts as evidence —
             centrally, so both the native and the CLIPS policies get
             provenance without threading facts through every action *)
          let w =
            match Expert.Engine.current_activation engine with
            | Some (_rule, facts) ->
              Warning.with_facts w (List.map Evidence.of_fact facts)
            | None -> w
          in
          (* the verdict path (count, severity, the in-flight list the
             auto-kill decision reads) is exact regardless of the cap;
             only the stored transcript is bounded *)
          t.fresh <- w :: t.fresh;
          t.count <- t.count + 1;
          t.max_sev <-
            (match t.max_sev with
             | Some s when Severity.(s >= w.Warning.severity) -> t.max_sev
             | Some _ | None -> Some w.Warning.severity);
          if List.length t.warnings < t.warning_cap then
            t.warnings <- w :: t.warnings
          else begin
            t.dropped <- t.dropped + 1;
            Obs.Counter.incr c_dropped
          end;
          Obs.Counter.incr c_warnings;
          Obs.Counter.incr (c_severity w.Warning.severity);
          if Obs.Trace.enabled () then begin
            let ev = w.Warning.evidence in
            Obs.Trace.emit "warning"
              ([ "severity", Obs.Str (Severity.label w.Warning.severity);
                 "rule", Obs.Str w.Warning.rule;
                 "pid", Obs.Int w.Warning.pid;
                 "tick", Obs.Int w.Warning.time;
                 "rare", Obs.Bool w.Warning.rare ]
               @ (if ev.Evidence.facts = [] then []
                  else
                    [ "ev_facts",
                      Obs.Str (Evidence.facts_to_string ev) ])
               @ (if ev.Evidence.origins = [] then []
                  else
                    [ "ev_origins",
                      Obs.Str (Evidence.origins_to_string ev) ])
               @ [ "message", Obs.Str w.Warning.message ])
          end) }
  in
  (match compiled.c_policy with
   | Native ->
     Policy_exec.register engine ctx;
     Policy_resource.register engine ctx;
     Policy_flow.register engine ctx
   | Clips -> Policy_clips.install_forms engine ctx compiled.c_forms);
  t

let create ?trust ?auto_kill ?warning_cap ?(policy = Native) () =
  create_from ?trust ?auto_kill ?warning_cap ~compiled:(compile policy) ()

let trust t = t.trust

let engine t = t.engine

let handle_event t event =
  t.fresh <- [];
  let facts =
    match t.policy with
    | Native -> [ Facts.assert_event t.engine t.trust event ]
    | Clips -> Facts.assert_event_full t.engine t.trust event
  in
  ignore (Expert.Engine.run t.engine);
  List.iter (Expert.Engine.retract t.engine) facts;
  match t.auto_kill with
  | Some threshold
    when List.exists (fun w -> Severity.(w.Warning.severity >= threshold))
           t.fresh -> Osim.Kernel.Kill
  | Some _ | None -> Osim.Kernel.Allow

let warnings t = List.rev t.warnings

let distinct_warnings t = Warning.dedup (warnings t)

let warning_count t = t.count

let max_severity t = t.max_sev

let degraded t =
  if t.dropped > 0 then
    [ Fmt.str
        "warning cap %d reached; %d later warning(s) dropped from the \
         transcript (counts and verdict remain exact)"
        t.warning_cap t.dropped ]
  else []

let replay ?trust ?policy events =
  let secpert = create ?trust ?policy () in
  List.iter (fun e -> ignore (handle_event secpert e)) events;
  warnings secpert
