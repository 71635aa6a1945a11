(* Line-framed JSON job protocol over one shared, supervised fleet.

   A [service] compiles both engines (native, clips) exactly once and
   owns a Supervisor: worker domains, deadline watchdog, global admission
   cap.  Any number of connections then attach with
   [serve_connection]; their requests multiplex onto the same worker
   domains and their responses come back per-connection in input
   order, routed by a single collector thread.

   One request per input line — a flat JSON object, the same dialect
   Obs.Trace emits and Forensics.Jsonl parses:

     {"scenario":"pma","policy":"clips","seed":7,"id":"job-42"}

   Fields: [scenario] (required), [policy] "native"|"clips" (default
   native), [seed] int or [fault_plan] string (mutually exclusive),
   [budget] "KEY=N,KEY=N", [id] echoed back verbatim, [op]
   "run" (default) | "health" | "stats" | "store_stats" |
   "store_query".  A store_query request adds [kind]
   "query" (default; filters [scenario]/[rule]/[severity]/[resource]/
   [verdict]) | "profile" | "diff" (requires [run]) plus [limit], and
   is answered in-line from the attached warehouse via
   Store.Fleet_query — no fleet slot, no trace decompression.

   With a warehouse attached ([create ?store]) every run request also
   produces a sealed trace segment; the collector — the sole consumer
   of Supervisor.next — appends it before emitting the response, so
   the manifest is the single-writer append log the warehouse
   requires, and a response line in hand implies the run is already
   durable in the store.

   One response line per request, in that connection's input order,
   whatever order the fleet finished them in:

     {"seq":0,"id":"job-42","scenario":"pma","status":"ok",
      "verdict":"SUSPICIOUS (HIGH)","expected":"suspicious (HIGH)",
      "match":true,"warnings":5,"distinct":2,"events":210,
      "degraded":false,"findings":"..."}

   Malformed lines produce {"status":"bad_request",...} at their
   sequence position instead of poisoning the stream.

   Overload policy (DESIGN.md §17): the per-connection window BLOCKS
   the reader — backpressure that can never change response content —
   while the supervisor's global cap answers
   {"status":"overloaded","retry":true} and a draining service
   answers {"status":"shutting_down","retry":false}.  Run responses
   are session-deterministic, so serving the same request script on
   one connection is byte-identical across runs and job counts;
   overloaded lines (cross-connection races), wall-clock timeout
   errors, and health/stats telemetry are the documented exceptions. *)

type target = {
  t_setup : Hth.Engine.setup;
  t_expected : string;
  t_matches : Hth.Report.verdict -> bool;
}

type resolver = string -> target option

let c_requests = Obs.Counter.make "serve.requests"
let c_overloaded = Obs.Counter.make "serve.overloaded"
let h_latency = Obs.Histogram.make "serve.latency.ms"

(* ------------------------------------------------------------------ *)
(* request parsing                                                     *)

type request = {
  r_id : string option;
  r_scenario : string;
  r_expected : string;
  r_matches : Hth.Report.verdict -> bool;
  (* manifest provenance, carried so the collector can describe the
     run when a warehouse is attached *)
  r_policy : string;
  r_seed : int option;
  r_fault : string option;
}

(* Cross-run warehouse queries answered in-line (no fleet slot): the
   three Fleet_query surfaces, plus a row cap so a huge store cannot
   produce an unbounded response line. *)
type squery_kind =
  | Q_hits of Store.Fleet_query.filter
  | Q_profile
  | Q_diff of string  (* run id *)

type parsed =
  | P_run of request * Executor.job
  | P_health of string option  (* id to echo *)
  | P_stats of string option
  | P_store_stats of string option
  | P_store_query of string option * squery_kind * int  (* id, kind, limit *)

let field_str fields k =
  match List.assoc_opt k fields with
  | Some (Forensics.Jsonl.Str s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" k)
  | None -> Ok None

let field_int fields k =
  match List.assoc_opt k fields with
  | Some (Forensics.Jsonl.Int n) -> Ok (Some n)
  | Some _ -> Error (Printf.sprintf "field %S must be an int" k)
  | None -> Ok None

let ( let* ) = Result.bind

(* A request either parses into a [parsed] or into an error line.
   [default_ticks > 0] gives budget-less sessions a tick budget so a
   runaway-but-ticking guest fails deterministically long before the
   wall-clock watchdog has to get involved. *)
let parse_request resolver ~default_ticks ~store line =
  let* fields = Forensics.Jsonl.parse_line line in
  let* op = field_str fields "op" in
  let* id = field_str fields "id" in
  match op with
  | Some "health" -> Ok (P_health id)
  | Some "stats" -> Ok (P_stats id)
  | Some "store_stats" -> Ok (P_store_stats id)
  | Some "store_query" ->
    let* limit = field_int fields "limit" in
    let limit = match limit with Some n when n > 0 -> n | _ -> 50 in
    let* kind = field_str fields "kind" in
    (match kind with
     | None | Some "query" ->
       let* scenario = field_str fields "scenario" in
       let* rule = field_str fields "rule" in
       let* severity = field_str fields "severity" in
       let* resource = field_str fields "resource" in
       let* verdict = field_str fields "verdict" in
       Ok
         (P_store_query
            ( id,
              Q_hits
                { Store.Fleet_query.q_scenario = scenario;
                  q_rule = rule;
                  q_severity = severity;
                  q_resource = resource;
                  q_verdict = verdict },
              limit ))
     | Some "profile" -> Ok (P_store_query (id, Q_profile, limit))
     | Some "diff" ->
       let* run = field_str fields "run" in
       (match run with
        | Some r -> Ok (P_store_query (id, Q_diff r, limit))
        | None -> Error "store_query kind \"diff\" requires field \"run\"")
     | Some k ->
       Error
         (Printf.sprintf "unknown store_query kind %S (query|profile|diff)"
            k))
  | None | Some "run" ->
    let* scenario = field_str fields "scenario" in
    let* scenario =
      match scenario with
      | Some s -> Ok s
      | None -> Error "missing field \"scenario\""
    in
    let* target =
      match resolver scenario with
      | Some t -> Ok t
      | None -> Error (Printf.sprintf "unknown scenario %S" scenario)
    in
    let* policy = field_str fields "policy" in
    let* engine =
      match policy with
      | None | Some "native" -> Ok "native"
      | Some "clips" -> Ok "clips"
      | Some p -> Error (Printf.sprintf "unknown policy %S (native|clips)" p)
    in
    let* seed = field_int fields "seed" in
    let* plan = field_str fields "fault_plan" in
    let* fault =
      match seed, plan with
      | Some _, Some _ -> Error "seed and fault_plan are mutually exclusive"
      | Some s, None -> Ok (Osim.Fault.seeded s)
      | None, Some p -> Osim.Fault.parse p
      | None, None -> Ok Osim.Fault.none
    in
    let* budget = field_str fields "budget" in
    let* budgets =
      match budget with
      | None -> Ok Hth.Engine.no_budgets
      | Some spec -> Hth.Engine.parse_budgets (String.split_on_char ',' spec)
    in
    let budgets =
      match budgets.Hth.Engine.b_ticks with
      | None when default_ticks > 0 ->
        { budgets with Hth.Engine.b_ticks = Some default_ticks }
      | _ -> budgets
    in
    Ok
      (P_run
         ( { r_id = id;
             r_scenario = scenario;
             r_expected = target.t_expected;
             r_matches = target.t_matches;
             r_policy = engine;
             r_seed = seed;
             r_fault = plan },
           Executor.job ~engine ~budgets ~fault ~store target.t_setup ))
  | Some op ->
    Error
      (Printf.sprintf
         "unsupported op %S (run|health|stats|store_stats|store_query)" op)

(* ------------------------------------------------------------------ *)
(* per-connection state: ordered emission + bounded in-flight window   *)

type conn = {
  c_mu : Mutex.t;
  c_cv : Condition.t;  (* in-flight moved / response flushed *)
  c_pending : (int, string) Hashtbl.t;  (* conn seq -> response line *)
  mutable c_next : int;  (* next conn seq to write out *)
  mutable c_inflight : int;  (* admitted fleet jobs not yet answered *)
  mutable c_dead : bool;  (* output failed; drain without writing *)
  c_out : string -> unit;
  c_window : int;
}

(* Flush in-order under [c_mu].  A failing [c_out] (client went away
   mid-stream) marks the connection dead: remaining responses are
   consumed and dropped so the fleet and the other connections never
   notice. *)
let flush_locked c =
  while Hashtbl.mem c.c_pending c.c_next do
    let l = Hashtbl.find c.c_pending c.c_next in
    Hashtbl.remove c.c_pending c.c_next;
    (if not c.c_dead then try c.c_out l with _ -> c.c_dead <- true);
    c.c_next <- c.c_next + 1;
    Condition.broadcast c.c_cv
  done

let conn_emit c k line =
  Mutex.lock c.c_mu;
  Hashtbl.replace c.c_pending k line;
  flush_locked c;
  Mutex.unlock c.c_mu

(* Same, but also credits the connection's in-flight window (fleet
   responses only — local responses never held a slot). *)
let conn_fleet_emit c k line =
  Mutex.lock c.c_mu;
  Hashtbl.replace c.c_pending k line;
  flush_locked c;
  c.c_inflight <- c.c_inflight - 1;
  Condition.broadcast c.c_cv;
  Mutex.unlock c.c_mu

let conn_uncount c =
  Mutex.lock c.c_mu;
  c.c_inflight <- c.c_inflight - 1;
  Condition.broadcast c.c_cv;
  Mutex.unlock c.c_mu

(* ------------------------------------------------------------------ *)
(* the service: one supervisor, one collector, N connections           *)

type route = {
  rt_eseq : int;  (* the supervisor's sequence number *)
  rt_conn : conn;
  rt_seq : int;  (* the connection's sequence number *)
  rt_req : request;
  rt_t0 : float;  (* submit time, for serve.latency.ms *)
}

type service = {
  sv_sup : Supervisor.t;
  sv_resolver : resolver;
  sv_default_ticks : int;  (* 0 = off *)
  sv_window : int;
  sv_store : Store.Warehouse.t option;
      (* appended to only by the collector; reads (store_stats) take
         [sv_obs_mu], as does the collector around each append *)
  sv_mu : Mutex.t;  (* a reader's admission and its route push *)
  sv_routes : route Queue.t;  (* admitted runs, in admission order *)
  sv_obs_mu : Mutex.t;  (* latency/counter cells vs. stats reads *)
  mutable sv_collector : Thread.t option;
}

(* ------------------------------------------------------------------ *)
(* response rendering                                                  *)

(* Every response line: its sequence number, the request's id when it
   had one, then the response's own fields. *)
let response seq id fields =
  let id = match id with None -> [] | Some i -> [ "id", Obs.Str i ] in
  Obs.json_object ((("seq", Obs.Int seq) :: id) @ fields)

let ok_line seq (req : request) (r : Hth.Engine.result) =
  let v = Hth.Report.verdict r in
  let distinct = r.distinct in
  let findings =
    String.concat "\n" (List.map Secpert.Warning.to_string distinct)
  in
  response seq req.r_id
    Obs.[ "scenario", Str req.r_scenario; "status", Str "ok";
          "verdict", Str (Hth.Report.verdict_label v);
          "expected", Str req.r_expected; "match", Bool (req.r_matches v);
          "warnings", Int (List.length r.warnings);
          "distinct", Int (List.length distinct);
          "events", Int r.event_count; "degraded", Bool (r.degraded <> []);
          "findings", Str findings ]

let error_line seq (req : request) e =
  response seq req.r_id
    Obs.[ "scenario", Str req.r_scenario; "status", Str "error";
          "kind", Str (Hth.Error.kind e);
          "error", Str (Hth.Error.to_string e) ]

let bad_line seq msg =
  response seq None Obs.[ "status", Str "bad_request"; "error", Str msg ]

let overloaded_line seq (req : request) =
  response seq req.r_id
    Obs.[ "scenario", Str req.r_scenario; "status", Str "overloaded";
          "retry", Bool true ]

let draining_line seq (req : request) =
  response seq req.r_id
    Obs.[ "scenario", Str req.r_scenario; "status", Str "shutting_down";
          "retry", Bool false ]

let health_line svc seq id =
  let h = Supervisor.health svc.sv_sup in
  response seq id
    Obs.[ "status", Str "health"; "jobs", Int h.Supervisor.h_jobs;
          "inflight", Int h.Supervisor.h_inflight;
          "draining", Bool h.Supervisor.h_draining;
          "timeouts", Int h.Supervisor.h_timeouts;
          "respawns", Int h.Supervisor.h_stats.Pool.respawns;
          "executed", Int h.Supervisor.h_stats.Pool.executed ]

let stats_line svc seq id =
  Mutex.lock svc.sv_obs_mu;
  let requests = Obs.Counter.value c_requests in
  let overloaded = Obs.Counter.value c_overloaded in
  let n = Obs.Histogram.count h_latency in
  (* integer microseconds: the protocol stays inside the Jsonl dialect
     (no float literals), and a microsecond is plenty of resolution *)
  let us p = int_of_float (Obs.Histogram.percentile h_latency p *. 1000.) in
  let p50 = us 50. and p95 = us 95. and p99 = us 99. in
  Mutex.unlock svc.sv_obs_mu;
  response seq id
    Obs.[ "status", Str "stats"; "requests", Int requests;
          "overloaded", Int overloaded; "latency_count", Int n;
          "latency_p50_us", Int p50; "latency_p95_us", Int p95;
          "latency_p99_us", Int p99 ]

let store_stats_line svc seq id =
  match svc.sv_store with
  | None ->
    response seq id Obs.[ "status", Str "store_stats"; "enabled", Bool false ]
  | Some wh ->
    Mutex.lock svc.sv_obs_mu;
    let total = Store.Warehouse.total wh in
    let appended = Store.Warehouse.appended wh in
    let raw = Store.Warehouse.raw_bytes wh in
    let framed = Store.Warehouse.framed_bytes wh in
    Mutex.unlock svc.sv_obs_mu;
    response seq id
      Obs.[ "status", Str "store_stats"; "enabled", Bool true;
            "dir", Str (Store.Warehouse.dir wh); "runs", Int total;
            "appended", Int appended; "raw_bytes", Int raw;
            "framed_bytes", Int framed ]

let take n l = List.filteri (fun i _ -> i < n) l

(* Answer a cross-run warehouse query from manifests and segment
   indexes (Fleet_query never decompresses a trace, so this stays
   cheap enough to run on the reader thread).  Rows mirror the
   hth_trace fleet renderings, newline-joined into one field, capped
   at [limit] rows; the total is always reported so a capped response
   is recognizable. *)
let store_query_line svc seq (id, kind, limit) =
  let kind_label =
    match kind with Q_hits _ -> "query" | Q_profile -> "profile"
                  | Q_diff _ -> "diff"
  in
  let base rest =
    response seq id
      (Obs.[ "status", Str "store_query"; "kind", Str kind_label ] @ rest)
  in
  let found label n key rows =
    base
      Obs.[ "enabled", Bool true; label, Int n;
            key, Str (String.concat "\n" rows) ]
  in
  let err e =
    base Obs.[ "enabled", Bool true; "error", Str (Hth.Error.to_string e) ]
  in
  match svc.sv_store with
  | None -> base [ "enabled", Obs.Bool false ]
  | Some wh ->
    (* snapshot the manifest under the append lock so a response never
       observes a half-appended entry *)
    Mutex.lock svc.sv_obs_mu;
    let view = Store.Warehouse.load (Store.Warehouse.dir wh) in
    Mutex.unlock svc.sv_obs_mu;
    match view with
    | Error e -> err e
    | Ok view ->
      (match kind with
       | Q_hits f ->
         (match Store.Fleet_query.query view f with
          | Error e -> err e
          | Ok hits ->
            let rows =
              List.map
                (fun (h : Store.Fleet_query.hit) ->
                  Printf.sprintf "%s %s %s" h.h_entry.e_run
                    h.h_entry.e_verdict
                    (match h.h_steps with
                     | [] -> "-"
                     | steps ->
                       "steps "
                       ^ String.concat ","
                           (List.map string_of_int steps)))
                (take limit hits)
            in
            found "runs" (List.length hits) "hits" rows)
       | Q_profile ->
         (match Store.Fleet_query.profile view with
          | Error e -> err e
          | Ok blocks ->
            let rows =
              List.map
                (fun (b : Store.Fleet_query.block) ->
                  Printf.sprintf "pid %d 0x%06x hits %d runs %d" b.b_pid
                    b.b_addr b.b_count b.b_runs)
                (take limit blocks)
            in
            found "blocks" (List.length blocks) "profile" rows)
       | Q_diff run ->
         (match Store.Fleet_query.diff view ~run with
          | Error e -> err e
          | Ok (drifts, compared) ->
            let rows =
              List.map
                (fun (d : Store.Fleet_query.drift) ->
                  Printf.sprintf "%s %d median %d" d.d_name d.d_value
                    d.d_median)
                (take limit drifts)
            in
            base
              Obs.[ "enabled", Bool true;
                    "drifts", Int (List.length drifts);
                    "compared", Int compared;
                    "diff", Str (String.concat "\n" rows) ]))

(* ------------------------------------------------------------------ *)
(* collector: routes global-order outcomes to per-connection emitters  *)

(* Store one outcome's segment before its response is emitted: run id
   is scenario@eseq (supervisor sequence — unique and stable for the
   life of the service); error outcomes are stored too, so the
   warehouse is a complete record of what the fleet was asked to do. *)
let store_outcome svc (rt : route) (o : Executor.outcome) =
  match svc.sv_store, o.Executor.o_segment with
  | None, _ | _, None -> ()
  | Some wh, Some sealed ->
    let req = rt.rt_req in
    Mutex.protect svc.sv_obs_mu (fun () ->
        ignore
          (Store.Warehouse.record wh
             ~run:
               (Store.Warehouse.sanitize_run req.r_scenario
               ^ "@" ^ string_of_int o.Executor.o_seq)
             ~scenario:req.r_scenario ~policy:req.r_policy ?seed:req.r_seed
             ?fault:req.r_fault ~expected:req.r_expected
             ~matches:req.r_matches o.Executor.o_result sealed))

let collector svc =
  let rec go () =
    match Supervisor.next svc.sv_sup with
    | None -> ()  (* draining and fully released *)
    | Some o ->
      (* its reader admitted the job and queued the route under
         [sv_mu], so taking [sv_mu] here finds the route queued *)
      let rt = Mutex.protect svc.sv_mu (fun () -> Queue.pop svc.sv_routes) in
      assert (rt.rt_eseq = o.Executor.o_seq);
      (* durable before visible: the response line implies the run is
         already in the warehouse *)
      store_outcome svc rt o;
      let line =
        match o.Executor.o_result with
        | Ok r -> ok_line rt.rt_seq rt.rt_req r
        | Error e -> error_line rt.rt_seq rt.rt_req e
      in
      Mutex.lock svc.sv_obs_mu;
      Obs.Counter.incr c_requests;
      Obs.Histogram.observe h_latency
        ((Unix.gettimeofday () -. rt.rt_t0) *. 1000.);
      Mutex.unlock svc.sv_obs_mu;
      conn_fleet_emit rt.rt_conn rt.rt_seq line;
      go ()
  in
  go ()

let create ?(jobs = 1) ?deadline ?(max_inflight = 256) ?(window = 64)
    ?(default_ticks = 0) ?store ~resolver () =
  let native = Hth.Engine.create ~keep_events:false () in
  let clips =
    Hth.Engine.create ~policy:Secpert.System.Clips ~keep_events:false ()
  in
  let sup =
    Supervisor.create ?deadline ~max_inflight ~jobs
      [ "native", native; "clips", clips ]
  in
  let svc =
    { sv_sup = sup;
      sv_resolver = resolver;
      sv_default_ticks = max 0 default_ticks;
      sv_window = max 1 window;
      sv_store = store;
      sv_mu = Mutex.create ();
      sv_routes = Queue.create ();
      sv_obs_mu = Mutex.create ();
      sv_collector = None }
  in
  svc.sv_collector <- Some (Thread.create collector svc);
  svc

let supervisor svc = svc.sv_sup

let drain svc = Supervisor.begin_drain svc.sv_sup

let serve_connection svc ~input ~output () =
  let c =
    { c_mu = Mutex.create ();
      c_cv = Condition.create ();
      c_pending = Hashtbl.create 16;
      c_next = 0;
      c_inflight = 0;
      c_dead = false;
      c_out = output;
      c_window = svc.sv_window }
  in
  let rec loop k =
    match input () with
    | None -> k
    | Some line ->
      (match
         parse_request svc.sv_resolver ~default_ticks:svc.sv_default_ticks
           ~store:(Option.is_some svc.sv_store) line
       with
       | Error msg -> conn_emit c k (bad_line k msg)
       | Ok (P_health id) -> conn_emit c k (health_line svc k id)
       | Ok (P_stats id) -> conn_emit c k (stats_line svc k id)
       | Ok (P_store_stats id) -> conn_emit c k (store_stats_line svc k id)
       | Ok (P_store_query (id, kind, limit)) ->
         conn_emit c k (store_query_line svc k (id, kind, limit))
       | Ok (P_run (req, job)) ->
         (* per-connection window: block the reader — deterministic
            backpressure, response content never depends on timing *)
         Mutex.lock c.c_mu;
         while c.c_inflight >= c.c_window do
           Condition.wait c.c_cv c.c_mu
         done;
         c.c_inflight <- c.c_inflight + 1;
         Mutex.unlock c.c_mu;
         let t0 = Unix.gettimeofday () in
         (* admit and queue the route in one critical section: routes
            queue in admission order, the order [next] releases in *)
         Mutex.lock svc.sv_mu;
         let admission = Supervisor.submit svc.sv_sup job in
         (match admission with
          | Supervisor.Admitted eseq ->
            Queue.push
              { rt_eseq = eseq; rt_conn = c; rt_seq = k; rt_req = req;
                rt_t0 = t0 }
              svc.sv_routes
          | Supervisor.Overloaded | Supervisor.Draining -> ());
         Mutex.unlock svc.sv_mu;
         (match admission with
          | Supervisor.Admitted _ -> ()
          | Supervisor.Overloaded ->
            conn_uncount c;
            Obs.Counter.incr c_overloaded;
            conn_emit c k (overloaded_line k req)
          | Supervisor.Draining ->
            conn_uncount c;
            conn_emit c k (draining_line k req)));
      loop (k + 1)
  in
  let total = loop 0 in
  (* the connection's admitted jobs must all come back (the watchdog
     guarantees progress) before the caller may close the transport *)
  Mutex.lock c.c_mu;
  while c.c_inflight > 0 do
    Condition.wait c.c_cv c.c_mu
  done;
  Mutex.unlock c.c_mu;
  total

let shutdown svc =
  Supervisor.begin_drain svc.sv_sup;
  Supervisor.await_drain svc.sv_sup;
  Supervisor.shutdown svc.sv_sup;
  Option.iter Thread.join svc.sv_collector;
  svc.sv_collector <- None
