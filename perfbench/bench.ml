(* End-to-end serve benchmark.

     bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
                           [--short] [--inject flip-label|alter-body]

   A run starts the real service (svc.exe: Fleet.Serve as hth_serve
   configures it, a warehouse attached) in its own process, drives it
   over Unix socketpairs from a separate generator process (gen.exe),
   checks every answer and prints the end-to-end metrics.  The last
   line of stdout is one JSON object {correct, attempted, failed,
   metrics}; its metrics are the steady ones (set-up time, service CPU
   per request, peak RSS), the wall-clock rates and latencies are
   printed above it.

   The measured phase is split into rounds, each on a freshly set-up
   service (see [rounds]).  With --trace 1 the measured phase runs
   twice, untraced and with client spans, and a peel phase then replays
   a seeded sample of the same requests one at a time through each
   layer's public entry point.
   Spans and counter deltas are written as JSONL under .perfbench-runs/
   and the per-layer metrics are computed from that file.

   --short runs a small version of the workload with every output
   check; --inject plants an error the checks must catch (the
   benchmark's own tests, see selftest.sh). *)

let now () = Int64.to_int (Monotonic_clock.now ())
let ms ns = float ns /. 1e6

(* ------------------------------------------------------------------ *)
(* workloads                                                           *)

type workload = {
  name : string;
  pairs : (string * string) array;  (* (scenario, policy), drawn uniformly *)
  window : int;  (* run requests in flight on connection A *)
  k : int;  (* runs per answered store query; 0 = no queries *)
  fixture : int;  (* corpus runs in the warehouse before the run *)
  peel : int;  (* requests replayed layer by layer when traced *)
}

let policies = [ "native"; "clips" ]

let corpus_pairs =
  Array.of_list
    (List.concat_map
       (fun (sc : Guest.Scenario.t) -> List.map (fun p -> sc.sc_name, p) policies)
       Guest.Corpus.all)

let dense_name = Service_conf.dense.sc_name

let workloads ~short =
  [ { name = "corpus_mix"; pairs = corpus_pairs; window = 4; k = 0;
      fixture = 0; peel = (if short then 10 else 100) };
    { name = "dense_guest";
      pairs = Array.of_list (List.map (fun p -> dense_name, p) policies);
      window = 2; k = 0; fixture = 0; peel = (if short then 2 else 16) };
    { name = "store_forensics"; pairs = corpus_pairs; window = 4; k = 8;
      fixture = (if short then 60 else 1000);
      peel = (if short then 10 else 100) } ]

(* The benchmark's own verdict labels; the service's [match] field is
   never consulted.  Corpus labels are the hand-written [sc_expected]
   tables of Guest.Corpus. *)
let dense_label = "suspicious[HIGH]"

let dense_reason =
  "the guest copies the hard-coded /data/input.bin to the hard-coded \
   /data/output.bin, Table 6's HIGH case (Perf_workload declares \
   Malicious Low, which the monitor does not answer)"

let expected scenario =
  if scenario = dense_name then dense_label
  else
    match Guest.Corpus.find scenario with
    | Some sc -> Guest.Scenario.expected_label sc.sc_expected
    | None -> invalid_arg scenario

let q = Store.Jout.quote

let run_body (scenario, policy) =
  Printf.sprintf "{\"scenario\":%s,\"policy\":%s}" (q scenario) (q policy)

(* ------------------------------------------------------------------ *)
(* store queries                                                       *)

type query = Hits of Store.Fleet_query.filter | Profile | Diff of string

let query_body query =
  let f k v = Printf.sprintf ",%s:%s" (q k) (q v) in
  let opt k = function Some v -> f k v | None -> "" in
  "{\"op\":\"store_query\""
  ^ (match query with
     | Hits h ->
       f "kind" "query" ^ opt "rule" h.q_rule ^ opt "severity" h.q_severity
       ^ opt "resource" h.q_resource ^ opt "verdict" h.q_verdict
     | Profile -> f "kind" "profile"
     | Diff run -> f "kind" "diff" ^ f "run" run)
  ^ "}"

(* The count a store_query response reports, and the field it is in:
   each only grows as runs are appended. *)
let count_field = function Hits _ -> "runs" | Profile -> "blocks" | Diff _ -> "compared"

let direct_count view = function
  | Hits f -> Result.map List.length (Store.Fleet_query.query view f)
  | Profile -> Result.map List.length (Store.Fleet_query.profile view)
  | Diff run -> Result.map snd (Store.Fleet_query.diff view ~run)

(* A seeded mix over what the fixture holds: severity, rule, resource
   and verdict filters, a fleet profile and a counter diff. *)
let query_mix rng ~rules ~names ~runs =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let hits f = Hits f in
  let nf = Store.Fleet_query.no_filter in
  [ hits { nf with q_severity = Some (pick [ "HIGH"; "MEDIUM"; "LOW" ]) };
    hits { nf with q_rule = Some (pick rules) };
    hits { nf with q_rule = Some (pick rules) };
    hits { nf with q_resource = Some (pick names) };
    hits { nf with q_resource = Some (pick names) };
    hits { nf with q_verdict = Some (pick [ "benign"; "suspicious"; "HIGH" ]) };
    Profile;
    Diff (pick runs) ]

(* ------------------------------------------------------------------ *)
(* files, processes, clean-up                                          *)

let ( // ) = Filename.concat

let rec rm_rf path =
  match Unix.lstat path with
  | { st_kind = S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (path // f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    Unix.mkdir dst 0o755;
    Array.iter (fun f -> copy_tree (src // f) (dst // f)) (Sys.readdir src)
  end
  else
    Out_channel.with_open_bin dst (fun oc ->
        Out_channel.output_string oc
          (In_channel.with_open_bin src In_channel.input_all))

let mkdir_p d = try Unix.mkdir d 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()

(* Run outputs live in the checkout: a fresh temp directory per run
   (removed on every exit path) and the traced run's JSONL. *)
let runs_dir = ".perfbench-runs"

let fresh_tmp () =
  mkdir_p runs_dir;
  let rec go n =
    let d = runs_dir // Printf.sprintf "tmp-%d-%d" (Unix.getpid ()) n in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (EEXIST, _, _) -> go (n + 1)
  in
  go 0

let tmp = ref None
let children = ref []

let exe name = Filename.dirname Sys.executable_name // (name ^ ".exe")

let spawn name args ~stdin ~stdout =
  let prog = exe name in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) stdin stdout
      Unix.stderr
  in
  children := pid :: !children;
  pid

let rec waitpid flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (EINTR, _, _) -> waitpid flags pid

let forget pid = children := List.filter (( <> ) pid) !children

(* Wait for [pid]; past [timeout] seconds kill it.  A child stays in
   [children] until it is reaped, so [cleanup] can always stop it. *)
let reap ~timeout name pid =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match waitpid [ WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      go ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (waitpid [] pid);
      forget pid;
      failwith (name ^ " did not finish in time")
    | _, status ->
      forget pid;
      (match status with
       | WEXITED 0 -> ()
       | WEXITED c | WSIGNALED c | WSTOPPED c ->
         failwith (Printf.sprintf "%s failed (status %d)" name c))
  in
  go ()

let cleanup () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := [];
  Option.iter rm_rf !tmp;
  tmp := None

(* ------------------------------------------------------------------ *)
(* checks                                                              *)

type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable global_ok : bool;  (* checks not tied to one request *)
}

let checks = { attempted = 0; failed = 0; global_ok = true }

(* One request checked: [errors] names every check it failed; each is
   printed with its request. *)
let record ~request errors =
  checks.attempted <- checks.attempted + 1;
  if errors <> [] then begin
    checks.failed <- checks.failed + 1;
    List.iter (fun e -> Printf.eprintf "FAIL %s: %s\n" e request) errors
  end

let global_failure name detail =
  checks.global_ok <- false;
  Printf.eprintf "FAIL %s: %s\n" name detail

let parse line =
  match Forensics.Jsonl.parse_line line with Ok f -> Some f | Error _ -> None

let str fields k =
  match List.assoc_opt k fields with Some (Forensics.Jsonl.Str s) -> Some s | _ -> None

let int fields k =
  match List.assoc_opt k fields with Some (Forensics.Jsonl.Int n) -> Some n | _ -> None

(* The response body that must repeat exactly: everything but the
   connection sequence number and the echoed id. *)
let body fields = List.filter (fun (k, _) -> k <> "seq" && k <> "id") fields

type inject = No_inject | Flip_label | Alter_body

(* [expected_of] gives the benchmark's label; [refs] the first body
   seen per pair; returns the failed checks and whether it was ok. *)
let check_run ~expected_of ~refs ~seq ~id ~pair fields =
  let errs = ref [] in
  let fail e = errs := e :: !errs in
  if int fields "seq" <> Some seq then fail "seq";
  if str fields "id" <> Some id then fail "id";
  let ok = str fields "status" = Some "ok" in
  if not ok then fail ("status_" ^ Option.value ~default:"missing" (str fields "status"))
  else begin
    if str fields "verdict" <> Some (expected_of (fst pair)) then fail "verdict";
    match Hashtbl.find_opt refs pair with
    | None -> Hashtbl.replace refs pair (body fields)
    | Some b -> if b <> body fields then fail "body_changed"
  end;
  List.rev !errs, ok

(* ------------------------------------------------------------------ *)
(* the service process                                                 *)

type service = {
  pid : int;
  a : Unix.file_descr;  (* client ends, handed to the generator *)
  b : Unix.file_descr;
  report : string;
  wh_dir : string;
  setup_wall : float;  (* seconds *)
  warm_ok : int;  (* ok run responses during warm-up *)
  seq_base : int;  (* seq of connection A's first measured request *)
}

(* Start the service on a warehouse and warm it up: one request per
   distinct (scenario, policy), answered one at a time, so image
   caches and compiled blocks are filled.  The set-up runs from the
   process start to the last warm-up answer; [setup_wall] is its wall
   time, and the service reports its CPU time (see svc.ml). *)
let start_service ~dir ~tag ~wh_dir ~(w : workload) ~expected_of ~refs =
  let a, a_srv = Unix.socketpair ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  let b, b_srv = Unix.socketpair ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.setsockopt_float a SO_RCVTIMEO 60.;
  let report = dir // (tag ^ ".report") in
  let t0 = now () in
  let pid = spawn "svc" [ wh_dir; report ] ~stdin:a_srv ~stdout:b_srv in
  Unix.close a_srv;
  Unix.close b_srv;
  let ic = Unix.in_channel_of_descr a and oc = Unix.out_channel_of_descr a in
  let warm_ok = ref 0 in
  Array.iteri
    (fun i pair ->
      let id = Printf.sprintf "w%d" i in
      let body = run_body pair in
      let request = Printf.sprintf "{\"id\":%S,%s" id (String.sub body 1 (String.length body - 1)) in
      output_string oc request;
      output_char oc '\n';
      flush oc;
      match In_channel.input_line ic with
      | exception Sys_error _ | None -> record ~request [ "no_response" ]
      | Some line ->
        (match parse line with
         | None -> record ~request [ "unparseable" ]
         | Some fields ->
           let errs, ok = check_run ~expected_of ~refs ~seq:i ~id ~pair fields in
           if ok then incr warm_ok;
           record ~request errs))
    w.pairs;
  let setup_wall = float (now () - t0) /. 1e9 in
  output_string oc "#setup\n";
  flush oc;
  { pid; a; b; report; wh_dir; setup_wall; warm_ok = !warm_ok;
    seq_base = Array.length w.pairs }

(* Close the client ends: the service sees EOF on both connections,
   drains, shuts down and writes its report. *)
let stop_service s =
  (try Unix.close s.a with Unix.Unix_error _ -> ());
  (try Unix.close s.b with Unix.Unix_error _ -> ());
  reap ~timeout:60. "service" s.pid;
  List.map
    (fun l -> Scanf.sscanf l "%s %d" (fun k v -> k, v))
    (In_channel.with_open_text s.report In_channel.input_lines)

let setup_cpu report = float (List.assoc "setup_cpu_us" report) /. 1e6

let manifest_runs dir =
  match Store.Warehouse.load dir with
  | Ok v -> List.length v.v_entries
  | Error e -> failwith (Hth.Error.to_string e)

(* ------------------------------------------------------------------ *)
(* the closed loop                                                     *)

type answer = {
  conn : char;
  idx : int;
  row : int;
  send : int;
  recv : int;  (* -1: no response *)
  resp : string;
}

type loop_result = {
  start_ns : int;
  end_ns : int;
  answers : answer list;
  report : (string * int) list;
  span_file : string option;
}

let write_gen_conf path ~warm ~seconds ~(w : workload) ~seed ~round ~spans ~queries =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "warm %g\nseconds %g\nwindow %d\nk %d\nseed %d\nround %d\nspans %d\n"
        warm seconds w.window w.k seed round (if spans then 1 else 0);
      Printf.fprintf oc "runs %d\n" (Array.length w.pairs);
      Array.iter (fun p -> output_string oc (run_body p ^ "\n")) w.pairs;
      Printf.fprintf oc "queries %d\n" (Array.length queries);
      Array.iter (fun q -> output_string oc (query_body q ^ "\n")) queries)

let parse_answers path =
  let start = ref 0 and stop = ref 0 in
  let answers =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "start"; n ] -> start := int_of_string n; None
        | [ "end"; n ] -> stop := int_of_string n; None
        | c :: idx :: row :: send :: recv :: _ ->
          let skip = String.length (String.concat " " [ c; idx; row; send; recv ]) + 1 in
          Some
            { conn = c.[0]; idx = int_of_string idx; row = int_of_string row;
              send = int_of_string send; recv = int_of_string recv;
              resp = (if skip >= String.length l then "" else String.sub l skip (String.length l - skip)) }
        | _ -> failwith ("generator output: " ^ l))
      (In_channel.with_open_text path In_channel.input_lines)
  in
  !start, !stop, answers

let closed_loop ~dir ~tag ~(svc : service) ~(w : workload) ~warm ~seconds ~seed ~round ~spans ~queries =
  let conf = dir // (tag ^ ".gen") and out = dir // (tag ^ ".out") in
  write_gen_conf conf ~warm ~seconds ~w ~seed ~round ~spans ~queries;
  let pid = spawn "gen" [ conf; out ] ~stdin:svc.a ~stdout:svc.b in
  reap ~timeout:(warm +. seconds +. 120.) "generator" pid;
  let report = stop_service svc in
  let start_ns, end_ns, answers = parse_answers out in
  { start_ns; end_ns; answers; report;
    span_file = (if spans then Some (out ^ ".spans") else None) }

(* Check every answer of a closed loop, the settle phase's too;
   returns the latencies (ms) of the ok run and query answers sent in
   the measured phase. *)
let check_loop ~(w : workload) ~(svc : service) ~expected_of ~refs ~inject
    ~queries ~bounds (r : loop_result) =
  let run_lat = ref [] and query_lat = ref [] and ok_runs = ref 0 in
  let altered = ref false in
  List.iter
    (fun a ->
      let request =
        if a.conn = 'A' then run_body w.pairs.(a.row) else query_body queries.(a.row)
      in
      let request = Printf.sprintf "%c%d %s" a.conn a.idx request in
      if a.recv < 0 then record ~request [ "no_response" ]
      else
        match parse a.resp with
        | None -> record ~request [ "unparseable" ]
        | Some fields when a.conn = 'A' ->
          let pair = w.pairs.(a.row) in
          (* negative test: one repeat answer comes back altered *)
          let fields =
            if inject = Alter_body && (not !altered) && Hashtbl.mem refs pair then begin
              altered := true;
              List.map
                (function "events", Forensics.Jsonl.Int n -> "events", Forensics.Jsonl.Int (n + 1) | f -> f)
                fields
            end
            else fields
          in
          let errs, ok =
            check_run ~expected_of ~refs ~seq:(svc.seq_base + a.idx)
              ~id:(Printf.sprintf "a%d" a.idx) ~pair fields
          in
          if ok then begin
            incr ok_runs;
            if a.send >= r.start_ns then run_lat := ms (a.recv - a.send) :: !run_lat
          end;
          record ~request errs
        | Some fields ->
          let query = queries.(a.row) in
          let lo, hi = bounds.(a.row) in
          let errs =
            (if int fields "seq" <> Some a.idx then [ "seq" ] else [])
            @ (if str fields "id" <> Some (Printf.sprintf "q%d" a.idx) then [ "id" ] else [])
            @
            if str fields "status" <> Some "store_query" || List.mem_assoc "error" fields
            then [ "query_error" ]
            else
              match int fields (count_field query) with
              | Some n when lo <= n && n <= hi -> []
              | _ -> [ "query_out_of_bounds" ]
          in
          if errs = [] && a.send >= r.start_ns then query_lat := ms (a.recv - a.send) :: !query_lat;
          record ~request errs)
    r.answers;
  (* the warehouse gains exactly one manifest entry per ok run answer *)
  let gained = manifest_runs svc.wh_dir - w.fixture in
  if gained <> !ok_runs + svc.warm_ok then
    global_failure "manifest"
      (Printf.sprintf "%s gained %d entries for %d ok run answers" svc.wh_dir gained
         (!ok_runs + svc.warm_ok));
  !run_lat, !query_lat

(* ------------------------------------------------------------------ *)
(* statistics                                                          *)

let sorted l = List.sort compare l |> Array.of_list

(* nearest-rank percentile *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float n)) - 1)))

let median l = percentile (sorted l) 50.

(* The highest of p99, p95, p90 with at least ten samples beyond it;
   p90 when none has. *)
let tail l =
  let a = sorted l in
  let n = Array.length a in
  let beyond p = n - int_of_float (Float.ceil (p /. 100. *. float n)) in
  let p = List.find_opt (fun p -> beyond p >= 10) [ 99.; 95.; 90. ] |> Option.value ~default:90. in
  percentile a p, p, beyond p

(* ------------------------------------------------------------------ *)
(* fixture warehouse                                                   *)

let entry ~run ~scenario ~policy outcome (sealed : Store.Segment.sealed) =
  let verdict, warnings, distinct, degraded =
    match outcome with
    | Ok (r : Hth.Engine.result) ->
      ( Hth.Report.verdict_label (Hth.Report.verdict r), List.length r.warnings,
        List.length r.distinct, r.degraded <> [] )
    | Error e -> "error:" ^ Hth.Error.kind e, 0, 0, false
  in
  { Store.Manifest.e_run = run; e_scenario = scenario; e_policy = policy;
    e_seed = None; e_fault = None; e_verdict = verdict;
    e_expected = expected scenario; e_match = verdict = expected scenario;
    e_warnings = warnings; e_distinct = distinct; e_degraded = degraded;
    e_steps = 0; e_raw_bytes = 0; e_framed_bytes = 0;
    e_digest = Store.Manifest.digest sealed.s_index.ix_counters;
    e_segment = "" }

let open_wh dir =
  match Store.Warehouse.open_ dir with
  | Ok wh -> wh
  | Error e -> failwith (Hth.Error.to_string e)

let engines ?monitor_config ~keep_events () =
  List.map
    (fun p ->
      ( p,
        Hth.Engine.create ?monitor_config ~keep_events
          ~policy:(if p = "clips" then Secpert.System.Clips else Secpert.System.Native)
          () ))
    policies

let setup_of scenario = (Option.get (Service_conf.scenario scenario)).sc_setup

(* Build [n] seeded corpus runs into [dir] the way the service stores
   them; returns the rule names, indexed names and run ids seen, which
   the query mix draws from. *)
let build_fixture ~dir ~n ~rng (w : workload) =
  let wh = open_wh dir in
  let engs = engines ~keep_events:false () in
  let rules = Hashtbl.create 16 and names = Hashtbl.create 64 and runs = ref [] in
  for i = 0 to n - 1 do
    let scenario, policy = w.pairs.(Random.State.int rng (Array.length w.pairs)) in
    let wr = Store.Segment.Writer.create () in
    let outcome =
      Hth.Engine.run_outcome (List.assoc policy engs) ~budgets:Service_conf.budgets
        ~trace:(Store.Segment.Writer.target wr) (setup_of scenario)
    in
    let sealed = Store.Segment.Writer.seal wr in
    let run = Store.Warehouse.sanitize_run scenario ^ "@" ^ string_of_int i in
    let e = Store.Warehouse.append wh ~entry:(entry ~run ~scenario ~policy outcome sealed) ~sealed in
    runs := e.e_run :: !runs;
    List.iter (fun (x : Store.Segment.warning) -> Hashtbl.replace rules x.w_rule ()) sealed.s_index.ix_warnings;
    List.iter (fun (nm, _) -> Hashtbl.replace names nm ()) sealed.s_index.ix_names
  done;
  Store.Warehouse.close wh;
  let keys h = Hashtbl.fold (fun k () l -> k :: l) h [] |> List.sort compare in
  keys rules, keys names, List.rev !runs

let load_view dir =
  match Store.Warehouse.load dir with
  | Ok v -> v
  | Error e -> failwith (Hth.Error.to_string e)

let counts view queries =
  Array.map
    (fun q ->
      match direct_count view q with
      | Ok n -> n
      | Error e -> failwith (Hth.Error.to_string e))
    queries

(* ------------------------------------------------------------------ *)
(* output                                                              *)

let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "metric is not a finite number"

let print_result metrics =
  let m =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (q name) (number value) (q unit))
      metrics
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (checks.failed = 0 && checks.global_ok) checks.attempted checks.failed
    (String.concat "," m)

(* ------------------------------------------------------------------ *)
(* traced run: spans and counter deltas, kept in memory until the end  *)

let records = ref []  (* JSONL lines, newest first *)
let emit line = records := line :: !records

let span ~req ~name ~parent t0 t1 =
  emit
    (Printf.sprintf
       "{\"kind\":\"span\",\"req\":%s,\"name\":%s,\"parent\":%s,\"start_ns\":%d,\"end_ns\":%d}"
       (q req) (q name) (q parent) t0 t1)

let ints ~kind ~req ?(extra = []) fields =
  emit
    (Printf.sprintf "{\"kind\":%s,\"req\":%s%s%s}" (q kind) (q req)
       (String.concat "" (List.map (fun (k, v) -> Printf.sprintf ",%s:%s" (q k) (q v)) extra))
       (String.concat "" (List.map (fun (k, v) -> Printf.sprintf ",%s:%d" (q k) v) fields)))

let counters ~req ~call before =
  ints ~kind:"counters" ~req ~extra:[ "call", call ]
    (Obs.diff ~before ~after:(Obs.snapshot ()))

let verdict_of (r : Hth.Engine.result) = Hth.Report.verdict_label (Hth.Report.verdict r)

let check_outcome ~expected_of ~request (sc, _) = function
  | Ok r -> record ~request (if verdict_of r = expected_of sc then [] else [ "verdict" ])
  | Error e -> record ~request [ "status_error:" ^ Hth.Error.kind e ]

(* Each layer below is a pair [(step, close)]: [step ~timed req pair]
   sends one request through the layer's public entry point. *)

(* serve: the whole service in this process, one request at a time
   (window 1), through an in-memory connection. *)
let serve_layer ~dir ~expected_of =
  let wh = open_wh (dir // "peel-serve") in
  let svc = Service_conf.create ~store:wh in
  let mu = Mutex.create () and cv = Condition.create () in
  let inbox = Queue.create () and answer = ref None in
  let input () =
    Mutex.lock mu;
    while Queue.is_empty inbox do Condition.wait cv mu done;
    let line = Queue.pop inbox in
    Mutex.unlock mu;
    line
  in
  let output line =
    let t = now () in
    Mutex.lock mu;
    answer := Some (t, line);
    Condition.broadcast cv;
    Mutex.unlock mu
  in
  let conn = Thread.create (fun () -> Fleet.Serve.serve_connection svc ~input ~output ()) () in
  let step ~timed req pair =
    Mutex.lock mu;
    answer := None;
    let t0 = now () in
    Queue.push (Some (run_body pair)) inbox;
    Condition.broadcast cv;
    while !answer = None do Condition.wait cv mu done;
    let t1, resp = Option.get !answer in
    Mutex.unlock mu;
    if timed then begin
      span ~req ~name:"serve" ~parent:"" t0 t1;
      let request = "peel serve " ^ run_body pair in
      match parse resp with
      | Some f when str f "status" = Some "ok" ->
        record ~request (if str f "verdict" = Some (expected_of (fst pair)) then [] else [ "verdict" ])
      | _ -> record ~request [ "status" ]
    end
  in
  let close () =
    Mutex.lock mu;
    Queue.push None inbox;
    Condition.broadcast cv;
    Mutex.unlock mu;
    Thread.join conn;
    Fleet.Serve.shutdown svc;
    Store.Warehouse.close wh
  in
  step, close

(* fleet: Supervisor.submit -> next alone, the job the service builds *)
let fleet_layer ~expected_of =
  let sup =
    Fleet.Supervisor.create ~deadline:Service_conf.deadline
      ~max_inflight:Service_conf.max_inflight ~jobs:Service_conf.jobs
      (engines ~keep_events:false ())
  in
  let step ~timed req ((sc, policy) as pair) =
    let job =
      Fleet.Executor.job ~engine:policy ~budgets:Service_conf.budgets ~store:true
        (setup_of sc)
    in
    let t0 = now () in
    let result =
      match Fleet.Supervisor.submit sup job with
      | Admitted _ ->
        Option.map (fun (o : Fleet.Executor.outcome) -> o.o_result) (Fleet.Supervisor.next sup)
      | Overloaded | Draining -> None
    in
    let t1 = now () in
    if timed then begin
      span ~req ~name:"fleet" ~parent:"serve" t0 t1;
      let request = "peel fleet " ^ run_body pair in
      match result with
      | Some r -> check_outcome ~expected_of ~request pair r
      | None -> record ~request [ "status" ]
    end
  in
  step, fun () -> Fleet.Supervisor.shutdown sup

(* The ablation ladder of bench/perf.ml: pure interpretation with one
   more monitoring feature per rung. *)
let ladder =
  let d = Harrier.Monitor.default_config in
  [ "syscall", { d with track_dataflow = false; track_frequency = false; shortcircuit = []; tier = false };
    "freq", { d with track_dataflow = false; shortcircuit = []; tier = false };
    "dataflow", { d with track_frequency = false; tier = false };
    "untiered", { d with tier = false } ]

(* engine, Secpert, trace and store write: direct calls in this domain,
   so Obs counter deltas are exact per call *)
let engine_layer ~wh_dir ~expected_of =
  let budgets = Service_conf.budgets in
  let engs = engines ~keep_events:false () in
  let event_engs = engines ~keep_events:true () in
  let ladder_engs =
    List.map (fun (name, cfg) -> name, engines ~monitor_config:cfg ~keep_events:false ()) ladder
  in
  let compiled =
    [ "native", Secpert.System.compile Native; "clips", Secpert.System.compile Clips ]
  in
  let app = open_wh wh_dir in
  let images = Obs.snapshot () in
  let step ~timed req (sc, policy) =
    let setup = setup_of sc and eng = List.assoc policy engs in
    let c0 = Obs.snapshot () in
    let wr = Store.Segment.Writer.create () in
    let t0 = now () in
    let traced =
      Hth.Engine.run_outcome eng ~budgets ~trace:(Store.Segment.Writer.target wr) setup
    in
    let t1 = now () in
    let sealed = Store.Segment.Writer.seal wr in
    let t2 = now () in
    if timed then counters ~req ~call:"engine.traced" c0;
    let e = entry ~run:("peel@" ^ req) ~scenario:sc ~policy traced sealed in
    let t3 = now () in
    ignore (Store.Warehouse.append app ~entry:e ~sealed);
    let t4 = now () in
    let c1 = Obs.snapshot () in
    let t5 = now () in
    let session = Hth.Engine.run_outcome eng ~budgets setup in
    let t6 = now () in
    if timed then counters ~req ~call:"engine.session" c1;
    let c2 = Obs.snapshot () in
    let t7 = now () in
    ignore (Hth.Engine.run_unmonitored setup);
    let t8 = now () in
    if timed then counters ~req ~call:"engine.native" c2;
    let events =
      match Hth.Engine.run_outcome (List.assoc policy event_engs) ~budgets setup with
      | Ok r -> Some r
      | Error _ -> None
    in
    let t9 = now () in
    let s = Secpert.System.create_from ~compiled:(List.assoc policy compiled) () in
    Option.iter
      (fun (r : Hth.Engine.result) ->
        List.iter (fun ev -> ignore (Secpert.System.handle_event s ev)) r.events)
      events;
    let t10 = now () in
    let rungs =
      List.map
        (fun (name, engs) ->
          let t = now () in
          ignore (Hth.Engine.run_outcome (List.assoc policy engs) ~budgets setup);
          name, t, now ())
        ladder_engs
    in
    if timed then begin
      span ~req ~name:"engine.traced" ~parent:"fleet" t0 t2;
      span ~req ~name:"store.seal" ~parent:"engine.traced" t1 t2;
      span ~req ~name:"store.append" ~parent:"serve" t3 t4;
      span ~req ~name:"engine.session" ~parent:"engine.traced" t5 t6;
      span ~req ~name:"engine.native" ~parent:"engine.session" t7 t8;
      span ~req ~name:"secpert.replay" ~parent:"engine.session" t9 t10;
      List.iter (fun (name, t, t') -> span ~req ~name:("harrier.ladder." ^ name) ~parent:"" t t') rungs;
      let request = "peel engine " ^ run_body (sc, policy) in
      check_outcome ~expected_of ~request (sc, policy) traced;
      check_outcome ~expected_of ~request (sc, policy) session;
      (match session with
       | Ok r ->
         let t = r.tier in
         ints ~kind:"tier" ~req
           [ "interpreted", t.tc_interpreted; "compiled", t.tc_compiled;
             "summarized", t.tc_summarized; "deopt", t.tc_deopt ]
       | Error _ -> ());
      (* the replayed policy must reach the session's own verdict *)
      match events with
      | Some r ->
        ints ~kind:"replay" ~req [ "events", List.length r.events ];
        record ~request:("peel secpert " ^ run_body (sc, policy))
          (if Secpert.System.max_severity s = r.max_severity then [] else [ "replay_verdict" ])
      | None -> record ~request:("peel secpert " ^ run_body (sc, policy)) [ "status" ]
    end
  in
  let close () =
    counters ~req:"" ~call:"engine.images" images;
    Store.Warehouse.close app
  in
  step, close

(* The peel: each sampled request goes through every layer back to
   back, so a change in host speed hits all layers of a request alike;
   the distinct pairs go through once untimed first.  The engine layer
   appends to [wh_dir]. *)
let peel ~dir ~wh_dir ~expected_of sample =
  let layers =
    [ serve_layer ~dir ~expected_of; fleet_layer ~expected_of; engine_layer ~wh_dir ~expected_of ]
  in
  let through ~timed req pair = List.iter (fun (step, _) -> step ~timed req pair) layers in
  List.iter (through ~timed:false "warm") (List.sort_uniq compare (List.map snd sample));
  List.iter (fun (req, pair) -> through ~timed:true req pair) sample;
  List.iter (fun (_, close) -> close ()) (List.rev layers)

(* store read: Warehouse.load and the Fleet_query surfaces on the
   peel's warehouse, whose size depends on requests, not on speed *)
let peel_store wh_dir =
  for i = 1 to 3 do
    let req = Printf.sprintf "store%d" i in
    let t0 = now () in
    let view = load_view wh_dir in
    span ~req ~name:"store.load" ~parent:"" t0 (now ());
    let timed name f =
      let t = now () in
      (match f view with
       | Ok () -> ()
       | Error e -> global_failure name (Hth.Error.to_string e));
      span ~req ~name ~parent:"" t (now ())
    in
    let high = { Store.Fleet_query.no_filter with q_severity = Some "HIGH" } in
    timed "store.query" (fun v -> Result.map ignore (Store.Fleet_query.query v high));
    timed "store.profile" (fun v -> Result.map ignore (Store.Fleet_query.profile v));
    timed "store.diff" (fun v ->
        match v.v_entries with
        | e :: _ -> Result.map ignore (Store.Fleet_query.diff v ~run:e.e_run)
        | [] -> Ok ());
    if i = 3 then ints ~kind:"store" ~req:"" [ "runs", List.length view.v_entries ]
  done

(* ------------------------------------------------------------------ *)
(* per-layer metrics, computed from the JSONL file                     *)

(* Each layer metric with the end-to-end metric and workload it should
   move. *)
let on_corpus = "cpu_ms_per_req, latency_p50_ms, throughput_rps on corpus_mix; nothing on dense_guest"
let on_dense = "cpu_ms_per_req, latency_p50_ms, throughput_rps on dense_guest; nothing on corpus_mix"
let on_write = "cpu_ms_per_req, throughput_rps, latency_tail_ms on corpus_mix"
let on_read = "query_p50_ms, query_tail_ms, latency_tail_ms on store_forensics; nothing elsewhere"
let on_runtime = "latency_tail_ms, peak_rss_mb on all three workloads"

let layer_metrics =
  [ "serve.rtt_ms", "ms", "lower", on_corpus;
    "serve.self_ms", "ms", "lower", on_corpus;
    "fleet.rtt_ms", "ms", "lower", on_corpus;
    "fleet.self_ms", "ms", "lower", on_corpus;
    "fleet.parks_per_req", "count", "lower", on_corpus;
    "fleet.steals_per_req", "count", "lower", on_corpus;
    "engine.traced_ms", "ms", "lower", "cpu_ms_per_req, throughput_rps on corpus_mix";
    "engine.session_ms", "ms", "lower", "cpu_ms_per_req, throughput_rps on corpus_mix";
    "engine.native_ms", "ms", "lower", "cpu_ms_per_req, throughput_rps on corpus_mix (world boot is most of a tiny session)";
    "engine.images.hit_ratio", "ratio", "higher", "setup_s";
    "vm.instructions_per_req", "count", "lower", "cpu_ms_per_req, latency_p50_ms on dense_guest";
    "vm.native_ns_per_insn", "ns", "lower", "cpu_ms_per_req, latency_p50_ms on dense_guest";
    "osim.syscalls_per_req", "count", "lower", "cpu_ms_per_req, latency_p50_ms on corpus_mix";
    "osim.context_switches_per_req", "count", "lower", "cpu_ms_per_req, latency_p50_ms on corpus_mix";
    "harrier.overhead_x", "x", "lower", on_dense;
    "harrier.self_ms", "ms", "lower", on_dense;
    "harrier.ladder.syscall_x", "x", "lower", on_dense;
    "harrier.ladder.freq_x", "x", "lower", on_dense;
    "harrier.ladder.dataflow_x", "x", "lower", on_dense;
    "harrier.ladder.untiered_x", "x", "lower", on_dense;
    "harrier.events_per_req", "count", "lower", on_dense;
    "harrier.shadow.stores_per_req", "count", "lower", on_dense;
    "tier.summarized_ratio", "ratio", "higher", on_dense;
    "tier.deopt_per_req", "count", "lower", on_dense;
    "vm.blocks.promoted_per_req", "count", "higher", on_dense;
    "taint.union_memo.hit_ratio", "ratio", "higher", on_dense;
    "taint.intern.hit_ratio", "ratio", "higher", on_dense;
    "secpert.replay_ms", "ms", "lower", "cpu_ms_per_req, throughput_rps on corpus_mix; nothing on dense_guest";
    "secpert.us_per_event", "us", "lower", "cpu_ms_per_req, throughput_rps on corpus_mix; nothing on dense_guest";
    "expert.firings_per_req", "count", "lower", "cpu_ms_per_req, throughput_rps on corpus_mix; nothing on dense_guest";
    "expert.activations_per_req", "count", "lower", "cpu_ms_per_req, throughput_rps on corpus_mix; nothing on dense_guest";
    "trace.emit_ms", "ms", "lower", on_write;
    "trace.bytes_per_req", "bytes", "lower", on_write;
    "store.framed_ratio", "ratio", "lower", on_write;
    "store.seal_ms", "ms", "lower", on_write;
    "store.append_ms", "ms", "lower", on_write ^ "; latency_tail_ms on store_forensics";
    "store.load_ms", "ms", "lower", on_read;
    "store.query_ms", "ms", "lower", on_read;
    "store.profile_ms", "ms", "lower", on_read;
    "store.diff_ms", "ms", "lower", on_read;
    "store.runs", "count", "higher", on_read;
    "gc.minor_per_req", "count", "lower", on_runtime;
    "gc.major_per_1k_req", "count", "lower", on_runtime;
    "gc.top_heap_mb", "MB", "lower", on_runtime;
    "tracing.overhead_ratio", "ratio", "lower", "none (client-side span cost: traced / untraced latency_p50_ms)" ]

(* Printed and kept in the JSONL, but not in the JSON result: deopts
   are 0 on the corpus workloads and steals always 0 with one worker. *)
let printed_only = [ "tier.deopt_per_req"; "fleet.steals_per_req" ]

(* The layers whose self times partition serve.rtt_ms, and the
   tolerance within which their medians must sum to it. *)
let partition =
  [ "serve"; "fleet"; "engine.traced"; "store.seal"; "store.append"; "engine.session";
    "secpert.replay"; "engine.native" ]

let sum_tolerance = 0.2

let per_layer path =
  let recs =
    List.filter_map
      (fun l -> match Forensics.Jsonl.parse_line l with Ok f -> Some f | Error _ -> None)
      (In_channel.with_open_text path In_channel.input_lines)
  in
  let s f k = Option.value ~default:"" (str f k) in
  let i f k = Option.value ~default:0 (int f k) in
  let kind k = List.filter (fun f -> s f "kind" = k) recs in
  (* spans by request: (name, parent, duration ns) *)
  let by_req = Hashtbl.create 256 in
  List.iter
    (fun f ->
      let req = s f "req" in
      let l = Option.value ~default:[] (Hashtbl.find_opt by_req req) in
      Hashtbl.replace by_req req ((s f "name", s f "parent", i f "end_ns" - i f "start_ns") :: l))
    (kind "span");
  let durs name =
    Hashtbl.fold
      (fun req l acc ->
        List.fold_left (fun acc (n, _, d) -> if n = name then (req, d) :: acc else acc) acc l)
      by_req []
  in
  let self name =
    Hashtbl.fold
      (fun _ l acc ->
        List.fold_left
          (fun acc (n, _, d) ->
            if n <> name then acc
            else
              ms (d - List.fold_left (fun s (_, p, d') -> if p = name then s + d' else s) 0 l) :: acc)
          acc l)
      by_req []
  in
  let med name = median (List.map (fun (_, d) -> ms d) (durs name)) in
  let calls c = List.filter (fun f -> s f "call" = c) (kind "counters") in
  let total call key = List.fold_left (fun acc f -> acc + i f key) 0 (calls call) in
  let n_req = float (List.length (calls "engine.session")) in
  let per_req call key = float (total call key) /. n_req in
  let ratio a b = float a /. float (max 1 (a + b)) in
  let per_req_of call key = List.map (fun f -> s f "req", i f key) (calls call) in
  let native_insn = per_req_of "engine.native" "vm.instructions" in
  let events = List.map (fun f -> s f "req", i f "events") (kind "replay") in
  let per_unit spans counts scale =
    median
      (List.filter_map
         (fun (req, d) ->
           match List.assoc_opt req counts with
           | Some n when n > 0 -> Some (float d *. scale /. float n)
           | _ -> None)
         spans)
  in
  let tier k = List.fold_left (fun acc f -> acc + i f k) 0 (kind "tier") in
  let service = match kind "service" with f :: _ -> f | [] -> [] in
  let executed = float (max 1 (i service "executed")) in
  let client_p50 = median (List.map (fun (_, d) -> ms d) (durs "client.run")) in
  let untraced_p50 =
    match kind "closed_loop" with f :: _ -> ms (i f "latency_p50_ns") | [] -> nan
  in
  let native = med "engine.native" in
  let values =
    [ "serve.rtt_ms", med "serve";
      "serve.self_ms", median (self "serve");
      "fleet.rtt_ms", med "fleet";
      "fleet.self_ms", median (self "fleet");
      "fleet.parks_per_req", float (i service "parks") /. executed;
      "fleet.steals_per_req", float (i service "steals") /. executed;
      "engine.traced_ms", med "engine.traced";
      "engine.session_ms", med "engine.session";
      "engine.native_ms", native;
      "engine.images.hit_ratio",
      ratio (total "engine.images" "engine.images.hits") (total "engine.images" "engine.images.misses");
      "vm.instructions_per_req", per_req "engine.session" "vm.instructions";
      "vm.native_ns_per_insn", per_unit (durs "engine.native") native_insn 1.;
      "osim.syscalls_per_req", per_req "engine.session" "osim.syscalls";
      "osim.context_switches_per_req", per_req "engine.session" "osim.context_switches";
      "harrier.overhead_x", med "engine.session" /. native;
      "harrier.self_ms", median (self "engine.session");
      "harrier.events_per_req", per_req "engine.session" "harrier.events";
      "harrier.shadow.stores_per_req", per_req "engine.session" "harrier.shadow.stores";
      "tier.summarized_ratio",
      float (tier "summarized") /. float (max 1 (tier "interpreted" + tier "compiled"));
      "tier.deopt_per_req", float (tier "deopt") /. n_req;
      "vm.blocks.promoted_per_req", per_req "engine.session" "vm.blocks.promoted";
      "taint.union_memo.hit_ratio",
      ratio (total "engine.session" "taint.union_memo.hits") (total "engine.session" "taint.union_memo.misses");
      "taint.intern.hit_ratio",
      ratio (total "engine.session" "taint.intern.hits") (total "engine.session" "taint.intern.misses");
      "secpert.replay_ms", med "secpert.replay";
      "secpert.us_per_event", per_unit (durs "secpert.replay") events 1e-3;
      "expert.firings_per_req", per_req "engine.session" "expert.firings";
      "expert.activations_per_req", per_req "engine.session" "expert.activations";
      "trace.emit_ms", median (self "engine.traced");
      "trace.bytes_per_req", per_req "engine.traced" "store.bytes.raw";
      "store.framed_ratio",
      float (total "engine.traced" "store.bytes.framed") /. float (max 1 (total "engine.traced" "store.bytes.raw"));
      "store.seal_ms", med "store.seal";
      "store.append_ms", med "store.append";
      "store.load_ms", med "store.load";
      "store.query_ms", med "store.query";
      "store.profile_ms", med "store.profile";
      "store.diff_ms", med "store.diff";
      "store.runs", (match kind "store" with f :: _ -> float (i f "runs") | [] -> nan);
      "gc.minor_per_req", float (i service "minor_gcs") /. executed;
      "gc.major_per_1k_req", float (i service "major_gcs") *. 1000. /. executed;
      "gc.top_heap_mb", float (i service "top_heap_words") *. 8. /. 1048576.;
      "tracing.overhead_ratio", client_p50 /. untraced_p50 ]
    @ List.map (fun (name, _) -> "harrier.ladder." ^ name ^ "_x", med ("harrier.ladder." ^ name) /. native) ladder
  in
  let sum = List.fold_left (fun acc l -> acc +. median (self l)) 0. partition in
  values, sum /. med "serve"

(* ------------------------------------------------------------------ *)
(* main                                                                *)

(* The closed loop runs [settle_s] seconds under load before the
   measured phase: the first seconds of a fresh service run slower
   while pools, caches and heaps grow. *)
let settle_s = 1.

(* The measured phase is cut into [rounds] rounds, each on a fresh
   service, and [extra_setups] more set-ups are timed before each
   round, so set-ups and service processes sample the whole run: on a
   shared 2-core host the service's CPU per request varied by +-15%
   from one round to the next within a run. *)
let rounds = 8
let extra_setups = 1

type round = {
  setups : (float * float) list;  (* seconds: service CPU, wall *)
  loop : loop_result;
  run_lat : float list;  (* ms, measured ok run answers *)
  query_lat : float list;
}

(* Claims are also to be checked on this seed, which no change is
   tuned against. *)
let holdout_seed = 20061021

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  short : bool;
  inject : inject;
}

let usage =
  "usage: bench.exe --workload corpus_mix|dense_guest|store_forensics --seed N \
   --seconds S --trace 0|1 [--short] [--inject flip-label|alter-body]"

let parse_args argv =
  let rec go a = function
    | "--workload" :: v :: tl -> go { a with workload = v } tl
    | "--seed" :: v :: tl -> go { a with seed = int_of_string v } tl
    | "--seconds" :: v :: tl -> go { a with seconds = float_of_string v } tl
    | "--trace" :: ("0" | "1" as v) :: tl -> go { a with trace = v = "1" } tl
    | "--short" :: tl -> go { a with short = true } tl
    | "--inject" :: "flip-label" :: tl -> go { a with inject = Flip_label } tl
    | "--inject" :: "alter-body" :: tl -> go { a with inject = Alter_body } tl
    | [] -> a
    | x :: _ -> failwith ("unexpected argument " ^ x ^ "\n" ^ usage)
  in
  go { workload = ""; seed = 0; seconds = 10.; trace = false; short = false; inject = No_inject }
    (List.tl (Array.to_list argv))

let main args =
  let w =
    match List.find_opt (fun w -> w.name = args.workload) (workloads ~short:args.short) with
    | Some w -> w
    | None -> failwith usage
  in
  let dir = fresh_tmp () in
  tmp := Some dir;
  let rng = Random.State.make [| args.seed |] in
  let flipped = fst w.pairs.(0) in
  let expected_of sc =
    let l = expected sc in
    if args.inject = Flip_label && sc = flipped then
      if l = "benign" then "suspicious[HIGH]" else "benign"
    else l
  in
  let refs = Hashtbl.create 256 in
  Printf.printf "workload %s seed %d seconds %g trace %d (claims are also checked on --seed %d)\n"
    w.name args.seed args.seconds (if args.trace then 1 else 0) holdout_seed;
  if Array.exists (fun (sc, _) -> sc = dense_name) w.pairs then
    Printf.printf "label %s %s: %s\n" dense_name dense_label dense_reason;
  (* the pre-built warehouse and the query mix drawn over it (untimed) *)
  let fixture = dir // "fixture" in
  let queries, lo =
    if w.fixture = 0 then [||], [||]
    else begin
      let rules, names, runs = build_fixture ~dir:fixture ~n:w.fixture ~rng w in
      let queries = Array.of_list (query_mix rng ~rules ~names ~runs) in
      queries, counts (load_view fixture) queries
    end
  in
  let service tag =
    let wh_dir = dir // ("wh-" ^ tag) in
    if w.fixture > 0 then copy_tree fixture wh_dir;
    start_service ~dir ~tag ~wh_dir ~w ~expected_of ~refs
  in
  let warm = if args.short then 0.5 else settle_s in
  let n_rounds = if args.short then 1 else rounds in
  (* One measured phase: [n_rounds] closed loops of an equal share of
     --seconds, each on a freshly set-up service whose warehouse is
     removed once checked, and with [extra] more set-ups timed before
     each. *)
  let measure ~tag ~spans ~extra =
    List.init n_rounds (fun i ->
        let tag = Printf.sprintf "%s%d" tag i in
        let extra =
          List.init extra (fun j ->
              let s = service (Printf.sprintf "%s-setup%d" tag j) in
              let report = stop_service s in
              rm_rf s.wh_dir;
              setup_cpu report, s.setup_wall)
        in
        let svc = service tag in
        let r =
          closed_loop ~dir ~tag ~svc ~w ~warm ~seconds:(args.seconds /. float n_rounds)
            ~seed:args.seed ~round:i ~spans ~queries
        in
        let hi = counts (load_view svc.wh_dir) queries in
        let bounds = Array.map2 (fun lo hi -> lo, hi) lo hi in
        let run_lat, query_lat =
          check_loop ~w ~svc ~expected_of ~refs ~inject:args.inject ~queries ~bounds r
        in
        rm_rf svc.wh_dir;
        { setups = extra @ [ setup_cpu r.report, svc.setup_wall ]; loop = r; run_lat; query_lat })
  in
  let rs = measure ~tag:"loop" ~spans:false ~extra:(if args.short then 0 else extra_setups) in
  let all f = List.concat_map f rs in
  let setups = all (fun r -> r.setups) in
  let run_lat = all (fun r -> r.run_lat) and query_lat = all (fun r -> r.query_lat) in
  if List.exists (fun r -> r.run_lat = []) rs then
    failwith "a round had no ok run answer in its measured phase";
  let total key = List.fold_left (fun acc r -> acc + List.assoc key r.loop.report) 0 rs in
  let n = List.length run_lat in
  let seconds =
    List.fold_left (fun acc r -> acc +. float (r.loop.end_ns - r.loop.start_ns) /. 1e9) 0. rs
  in
  let tail_v, tail_p, tail_n = tail run_lat in
  (* the gated metrics: the service's CPU time, unlike wall-clock
     times, rates and latencies, does not count the time the host takes
     the CPU away (steal), which on a shared host swings from minute to
     minute *)
  let e2e =
    [ "setup_s", median (List.map fst setups), "s";
      "cpu_ms_per_req", float (total "cpu_us") /. 1e3 /. float n, "ms";
      "peak_rss_mb",
      median (List.map (fun r -> float (List.assoc "vmhwm_kb" r.loop.report) /. 1024.) rs),
      "MB" ]
  in
  let line (name, v, unit) rest = Printf.printf "%-24s %12.4f %-8s %s\n" name v unit rest in
  line (List.nth e2e 0)
    (Printf.sprintf "service CPU, median of %d set-ups: %s" (List.length setups)
       (String.concat " " (List.map (fun (c, _) -> Printf.sprintf "%.4f" c) setups)));
  line (List.nth e2e 1) (Printf.sprintf "service CPU over the measured phase / %d ok run answers" n);
  line (List.nth e2e 2) "service VmHWM, median over the rounds";
  line ("setup_wall_s", median (List.map snd setups), "s")
    (Printf.sprintf "wall time, median of the same %d set-ups" (List.length setups));
  line ("throughput_rps", float n /. seconds, "req/s")
    (Printf.sprintf "%d ok run answers in %.3f s, %d rounds after %g s settling each" n seconds
       n_rounds warm);
  line ("latency_p50_ms", median run_lat, "ms") (Printf.sprintf "n=%d" n);
  line ("latency_tail_ms", tail_v, "ms") (Printf.sprintf "p%g, %d samples beyond" tail_p tail_n);
  if w.k > 0 then begin
    let qt, qp, qn = tail query_lat in
    line ("query_p50_ms", median query_lat, "ms") (Printf.sprintf "n=%d" (List.length query_lat));
    line ("query_tail_ms", qt, "ms") (Printf.sprintf "p%g, %d samples beyond" qp qn)
  end;
  line ("failed_ratio", float checks.failed /. float (max 1 checks.attempted), "fraction")
    (Printf.sprintf "%d of %d requests" checks.failed checks.attempted);
  if not args.trace then print_result e2e
  else begin
    (* (a) the closed loop again, with client spans *)
    let rs2 = measure ~tag:"traced" ~spans:true ~extra:0 in
    (* (b) the peel: a seeded sample of the traced loop's run requests *)
    let sent =
      Array.of_list
        (List.concat
           (List.mapi
              (fun round r ->
                List.filter_map
                  (fun a -> if a.conn = 'A' then Some (round, a) else None)
                  r.loop.answers)
              rs2))
    in
    let prng = Random.State.make [| args.seed; 0x9ee1 |] in
    for i = Array.length sent - 1 downto 1 do
      let j = Random.State.int prng (i + 1) in
      let t = sent.(i) in
      sent.(i) <- sent.(j);
      sent.(j) <- t
    done;
    let sample =
      Array.to_list (Array.sub sent 0 (min w.peel (Array.length sent)))
      |> List.map (fun (round, a) -> Printf.sprintf "r%d.a%d" round a.idx, w.pairs.(a.row))
    in
    (* the workload's starting store plus the peel's own appends *)
    let wh_dir = dir // "peel-append" in
    if w.fixture > 0 then copy_tree fixture wh_dir;
    peel ~dir ~wh_dir ~expected_of sample;
    peel_store wh_dir;
    ints ~kind:"closed_loop" ~req:"" ~extra:[ "phase", "untraced" ]
      [ "latency_p50_ns", int_of_float (median run_lat *. 1e6) ];
    (* the service counters summed over the rounds, the heap top is
       the highest *)
    ints ~kind:"service" ~req:"" ~extra:[ "phase", "untraced" ]
      (List.map
         (fun (k, _) ->
           let vs = List.map (fun r -> List.assoc k r.loop.report) rs in
           k, if k = "top_heap_words" || k = "vmhwm_kb" then List.fold_left max 0 vs
              else List.fold_left ( + ) 0 vs)
         (List.hd rs).loop.report);
    (* everything kept in memory goes to one JSONL file *)
    mkdir_p runs_dir;
    let path = runs_dir // Printf.sprintf "trace-%s-seed%d.jsonl" w.name args.seed in
    Out_channel.with_open_text path (fun oc ->
        List.iter
          (fun (name, unit, better, moves) ->
            Printf.fprintf oc
              "{\"kind\":\"metric\",\"name\":%s,\"unit\":%s,\"better\":%s,\"moves\":%s}\n"
              (q name) (q unit) (q better) (q moves))
          layer_metrics;
        List.iter (fun l -> output_string oc (l ^ "\n")) (List.rev !records);
        List.iter
          (fun r ->
            Option.iter
              (fun f -> output_string oc (In_channel.with_open_text f In_channel.input_all))
              r.loop.span_file)
          rs2);
    let values, sum_ratio = per_layer path in
    Printf.printf "trace %s\n" path;
    let metrics =
      List.filter_map
        (fun (name, unit, _, moves) ->
          let v = List.assoc name values in
          Printf.printf "%-32s %14.6f %-6s moves: %s\n" name v unit moves;
          if List.mem name printed_only then None else Some (name, v, unit))
        layer_metrics
    in
    Printf.printf "layer self times sum to %.3f of serve.rtt_ms (tolerance %.2f): %s\n"
      sum_ratio sum_tolerance
      (if Float.abs (sum_ratio -. 1.) <= sum_tolerance then "within" else "OUTSIDE");
    print_result metrics
  end

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let interrupted = Sys.Signal_handle (fun _ -> failwith "interrupted") in
  List.iter (fun s -> Sys.set_signal s interrupted) [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  let code =
    match main (parse_args Sys.argv) with
    | () -> 0
    | exception e ->
      prerr_endline ("perfbench: " ^ match e with Failure m -> m | e -> Printexc.to_string e);
      1
  in
  cleanup ();
  exit code
