(* Section 9: performance evaluation.

   The paper's finding is that Harrier's naive data-flow tracking
   dominates the cost; we reproduce the shape by running the same guest
   workload under increasing levels of monitoring and reporting the
   slowdown relative to the unmonitored simulator.  Component
   micro-benchmarks (tag-set union, shadow updates, expert-system
   inference) localize the cost, echoing the paper's discussion. *)

open Bechamel
open Toolkit

(* one arena for every tag set this benchmark interns *)
let sp = Taint.Tagset.make_space ()

(* The workload: an instruction-dense copy/checksum kernel (~60k
   instructions), so per-instruction monitoring dominates. *)
let workload () = Guest.Perf_workload.scenario ~iters:100

(* The ablation ladder: each row adds one monitoring feature. *)
let bare_config =
  { Harrier.Monitor.default_config with track_dataflow = false;
    track_frequency = false; shortcircuit = [] }

let freq_config =
  { Harrier.Monitor.default_config with track_dataflow = false;
    shortcircuit = [] }

let dataflow_config =
  { Harrier.Monitor.default_config with track_frequency = false }

let session_tests () =
  let sc = workload () in
  let run_unmonitored () =
    ignore (Hth.Engine.run_unmonitored sc.sc_setup)
  in
  let run_with config () =
    ignore (Guest.Scenario.run ~monitor_config:config sc)
  in
  Test.make_grouped ~name:"harrier-levels"
    [ Test.make ~name:"native (no monitor)"
        (Staged.stage run_unmonitored);
      Test.make ~name:"+syscall monitor" (Staged.stage (run_with bare_config));
      Test.make ~name:"+bb frequency" (Staged.stage (run_with freq_config));
      Test.make ~name:"+dataflow" (Staged.stage (run_with dataflow_config));
      Test.make ~name:"full HTH"
        (Staged.stage (run_with Harrier.Monitor.default_config)) ]

(* native vs textual-CLIPS policy throughput on the same event stream *)
let policy_tests () =
  let meta =
    { Harrier.Events.pid = 1; time = 10; freq = 1; addr = 0; step = 0 }
  in
  let transfer =
    Harrier.Events.Transfer
      { call = "SYS_write";
        data = (Taint.Tagset.singleton sp) (Taint.Source.File "/a");
        head = "";
        sources =
          [ Taint.Source.File "/a",
            (Taint.Tagset.singleton sp) (Taint.Source.Binary "/mal") ];
        guard = [];
        target =
          { r_kind = Harrier.Events.R_file; r_name = "/t";
            r_origin = (Taint.Tagset.singleton sp) (Taint.Source.Binary "/mal") };
        via_server = None; len = 16; meta }
  in
  let feed policy () =
    let s = Secpert.System.create ~policy () in
    for _ = 1 to 20 do
      ignore (Secpert.System.handle_event s transfer)
    done
  in
  Test.make_grouped ~name:"policy"
    [ Test.make ~name:"native rules (20 transfers)"
        (Staged.stage (feed Secpert.System.Native));
      Test.make ~name:"textual CLIPS (20 transfers)"
        (Staged.stage (feed Secpert.System.Clips)) ]

let tag_a =
  (Taint.Tagset.of_list sp)
    [ Taint.Source.User_input; Taint.Source.File "/a";
      Taint.Source.Binary "/bin/x" ]

let tag_b =
  (Taint.Tagset.of_list sp)
    [ Taint.Source.Socket "peer:1"; Taint.Source.File "/a" ]

(* An indexed-WM inference workload: 4 templates x 50 facts, one
   2-pattern joined rule over two of them.  With per-template buckets
   the join only visits candidate facts of each pattern's template. *)
let wm_inference () =
  let e = Expert.Engine.create () in
  List.iter
    (fun name ->
      Expert.Engine.deftemplate e
        (Expert.Template.make name [ Expert.Template.slot "v" ]))
    [ "a"; "b"; "c"; "d" ];
  List.iter
    (fun name ->
      for i = 1 to 50 do
        ignore (Expert.Engine.assert_fact e name [ "v", Expert.Value.Int i ])
      done)
    [ "a"; "b"; "c"; "d" ];
  Expert.Engine.defrule e
    (Expert.Engine.rule ~name:(Expert.Engine.name "join")
       [ Expert.Pattern.make "a" [ "v", Expert.Pattern.Var "x" ];
         Expert.Pattern.make "b" [ "v", Expert.Pattern.Var "x" ] ]
       (fun _ _ _ -> ()));
  ignore (Expert.Engine.run e)

let secpert_execve_workload () =
  let secpert = Secpert.System.create () in
  let meta =
    { Harrier.Events.pid = 1; time = 10; freq = 1; addr = 0; step = 0 }
  in
  let res : Harrier.Events.resource =
    { r_kind = Harrier.Events.R_file; r_name = "/bin/ls";
      r_origin = (Taint.Tagset.singleton sp) (Taint.Source.Binary "/bin/x") }
  in
  for _ = 1 to 50 do
    ignore
      (Secpert.System.handle_event secpert
         (Harrier.Events.Exec { path = res; argv = []; meta }))
  done

let component_tests () =
  let shadow =
    Harrier.Shadow.create ~space:sp ~counts:(Harrier.Shadow.counts ()) ()
  in
  (* crosses the 4 KiB page boundary on purpose *)
  let straddle_addr = 0x8000 - 8 in
  Test.make_grouped ~name:"components"
    [ Test.make ~name:"tagset union (interned, memo hit)"
        (Staged.stage (fun () -> ignore ((Taint.Tagset.union sp) tag_a tag_b)));
      Test.make ~name:"tagset equal (pointer)"
        (Staged.stage (fun () -> ignore (Taint.Tagset.equal tag_a tag_b)));
      Test.make ~name:"shadow 4-byte store+load"
        (Staged.stage (fun () ->
             Harrier.Shadow.set_range shadow 0x8000 4 tag_a;
             ignore (Harrier.Shadow.range shadow 0x8000 4)));
      Test.make ~name:"shadow 64-byte range ops (page straddle)"
        (Staged.stage (fun () ->
             Harrier.Shadow.set_range shadow straddle_addr 64 tag_b;
             ignore (Harrier.Shadow.range shadow straddle_addr 64)));
      Test.make ~name:"indexed-WM inference (200 facts, 2-pat join)"
        (Staged.stage wm_inference);
      Test.make ~name:"secpert 50 execve events"
        (Staged.stage secpert_execve_workload) ]

(* ------------------------------------------------------------------ *)
(* Corpus throughput: the nine golden scenarios swept back-to-back.
   Cold per-session setup (one single-use engine per run) against one
   shared engine whose compiled policy persists across the sweep, and
   against the shared engine in the configuration [Fleet.Serve] runs
   (no event accumulation). *)

let golden_names =
  [ "ElmExploit"; "nlspath"; "procex"; "grabem"; "vixie crontab";
    "pma"; "superforker"; "ls"; "column" ]

let golden_corpus () = List.filter_map Guest.Corpus.find golden_names

let corpus_size = List.length (golden_corpus ())

let sweep run_one scs () =
  List.iter (fun (sc : Guest.Scenario.t) -> ignore (run_one sc.sc_setup)) scs

(* One single-use engine per session: the cold rows. *)
let cold ?policy setup = Hth.Engine.run (Hth.Engine.create ?policy ()) setup

(* Corpus rows are measured by sustained averaging, not bechamel's
   OLS.  A cold sweep allocates (and drops) engines, taint arenas and
   guest pages, so its cost includes real GC debt whose repayment
   drifts across consecutive samples; that drift wrecks the OLS fit,
   and whatever live heap earlier benchmark groups left behind leaks
   into the estimate.  Compacting, warming twice, then averaging whole
   sweeps charges each configuration exactly its own steady-state
   cost — the number a long corpus run actually observes. *)
let sustained_ns ?(rounds = 60) f =
  Gc.compact ();
  f ();
  f ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to rounds do
    f ()
  done;
  (Unix.gettimeofday () -. t0) /. float rounds *. 1e9

let corpus_results () =
  let scs = golden_corpus () in
  let shared = Hth.Engine.create () in
  let shared_clips = Hth.Engine.create ~policy:Secpert.System.Clips () in
  let shared_no_events = Hth.Engine.create ~keep_events:false () in
  [ "corpus/cold per-session setup (native)",
    sustained_ns (sweep cold scs);
    "corpus/shared engine (native)",
    sustained_ns (sweep (Hth.Engine.run shared) scs);
    "corpus/cold per-session setup (clips)",
    sustained_ns (sweep (cold ~policy:Secpert.System.Clips) scs);
    "corpus/shared engine (clips)",
    sustained_ns (sweep (Hth.Engine.run shared_clips) scs);
    "corpus/shared engine (native, no events)",
    sustained_ns (sweep (Hth.Engine.run shared_no_events) scs) ]
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Fleet scaling: the same golden sweep pushed through the fleet
   (Fleet.Supervisor, one shared FIFO queue) at increasing worker
   counts.  The fleet (and the engine its workers share) persists across
   rounds, like a long-lived hth_serve process; each measured round
   submits the whole corpus and drains it in order.  Speedup is bounded
   by the host's core count — recorded in the JSON row so a 1-core CI
   box reporting 1.0x is not mistaken for a scheduler regression. *)

let fleet_jobs = [ 1; 2; 4; 8 ]

let fleet_rounds = 30

let fleet_results () =
  let scs = golden_corpus () in
  let batch =
    List.map
      (fun (sc : Guest.Scenario.t) -> Fleet.Executor.job sc.sc_setup)
      scs
  in
  List.map
    (fun jobs ->
      let base = Hth.Engine.create ~keep_events:false () in
      let fleet = Fleet.Supervisor.create ~jobs [ "default", base ] in
      let ns =
        sustained_ns ~rounds:fleet_rounds (fun () ->
            ignore (Fleet.Supervisor.run_all fleet batch))
      in
      let st = Fleet.Supervisor.stats fleet in
      Fleet.Supervisor.shutdown fleet;
      Printf.sprintf "fleet/jobs=%d" jobs, ns, st)
    fleet_jobs

(* ------------------------------------------------------------------ *)
(* Trace warehouse: ingest cost of the segment sink against a plain
   in-memory buffer sink, and fleet-query latency against a built
   store.  The two segment rows bracket the sink hot path: per-line
   frames is what naive per-line writes amount to (one frame, one
   deflate stream and one checksum per trace line), the 64 KiB chunked
   sink is the shipped path — lines accumulate in one reused buffer
   and are framed wholesale. *)

let store_rounds = 30

let store_ingest_results () =
  let scs = golden_corpus () in
  let eng = Hth.Engine.create ~keep_events:false () in
  let buf = Buffer.create (1 lsl 16) in
  let buffer_sweep () =
    List.iter
      (fun (sc : Guest.Scenario.t) ->
        Buffer.clear buf;
        ignore
          (Hth.Engine.run eng ~trace:(Obs.Trace.buffer_target buf)
             sc.sc_setup))
      scs
  in
  let segment_sweep ?chunk_bytes () =
    List.iter
      (fun (sc : Guest.Scenario.t) ->
        let w = Store.Segment.Writer.create ?chunk_bytes () in
        ignore
          (Hth.Engine.run eng ~trace:(Store.Segment.Writer.target w)
             sc.sc_setup);
        ignore (Store.Segment.Writer.seal w))
      scs
  in
  [ "store/ingest buffer sink",
    sustained_ns ~rounds:store_rounds buffer_sweep;
    "store/ingest segment sink (per-line frames)",
    sustained_ns ~rounds:store_rounds (segment_sweep ~chunk_bytes:1);
    "store/ingest segment sink (64KiB chunks)",
    sustained_ns ~rounds:store_rounds (segment_sweep ?chunk_bytes:None) ]

(* Queries run against a store of one golden sweep built in a temp
   directory; they read the manifest and segment indexes only, so each
   measured call includes the real per-segment file I/O the CLI pays. *)
let build_store dir =
  let wh =
    match Store.Warehouse.open_ dir with
    | Ok wh -> wh
    | Error e -> failwith (Hth.Error.to_string e)
  in
  let eng = Hth.Engine.create ~keep_events:false () in
  List.iter
    (fun (sc : Guest.Scenario.t) ->
      let w = Store.Segment.Writer.create () in
      let outcome =
        Hth.Engine.run_outcome eng ~trace:(Store.Segment.Writer.target w)
          sc.sc_setup
      in
      ignore
        (Store.Warehouse.record wh ~run:sc.sc_name ~scenario:sc.sc_name
           ~policy:"native"
           ~expected:(Guest.Scenario.expected_label sc.sc_expected)
           ~matches:(Guest.Scenario.matches sc.sc_expected) outcome
           (Store.Segment.Writer.seal w)))
    (golden_corpus ());
  Store.Warehouse.close wh

(* a store is a flat directory: the manifest and the segment pack *)
let remove_store dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let store_query_rounds = 300

let store_query_results () =
  let dir = Filename.temp_file "hth_bench_store" "" in
  Sys.remove dir;
  build_store dir;
  Fun.protect ~finally:(fun () -> remove_store dir) @@ fun () ->
  let view =
    match Store.Warehouse.load dir with
    | Ok v -> v
    | Error e -> failwith (Hth.Error.to_string e)
  in
  let ok = function
    | Ok _ -> ()
    | Error e -> failwith (Hth.Error.to_string e)
  in
  [ "store/fleet query (severity=HIGH)",
    sustained_ns ~rounds:store_query_rounds (fun () ->
        ok
          (Store.Fleet_query.query view
             { Store.Fleet_query.no_filter with q_severity = Some "HIGH" }));
    "store/fleet profile",
    sustained_ns ~rounds:store_query_rounds (fun () ->
        ok (Store.Fleet_query.profile view));
    "store/fleet diff (pma)",
    sustained_ns ~rounds:store_query_rounds (fun () ->
        ok (Store.Fleet_query.diff view ~run:"pma")) ]

let analyze tests =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0
      ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 0.8) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> e
        | _ -> nan
      in
      (name, ns) :: acc)
    results []
  |> List.sort compare

let human_ns ns =
  if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

(* Machine-readable results so future PRs can track the trajectory. *)
let json_group name results extra =
  let entry (bench, ns) =
    let fields =
      Printf.sprintf "\"name\": %s, \"ns_per_run\": %.1f"
        (Obs.json_string bench) ns
      ::
      (match extra bench ns with [] -> [] | fs -> fs)
    in
    Printf.sprintf "    {%s}" (String.concat ", " fields)
  in
  Printf.sprintf "  \"%s\": [\n%s\n  ]" name
    (String.concat ",\n" (List.map entry results))

(* The cold row a corpus result should be compared against: the one
   running the same policy ("(clips)" rows vs the cold clips sweep,
   everything else vs the cold native sweep). *)
let corpus_cold_for corpus name =
  let is_clips n =
    let affix = "(clips)" in
    let na = String.length affix and nn = String.length n in
    let rec at i = i + na <= nn && (String.sub n i na = affix || at (i + 1)) in
    at 0
  in
  let cold_name =
    if is_clips name then "corpus/cold per-session setup (clips)"
    else "corpus/cold per-session setup (native)"
  in
  match List.find_opt (fun (n, _) -> n = cold_name) corpus with
  | Some (_, ns) -> Some ns
  | None -> None

let write_json path ~levels ~native ~components ~policies ~corpus ~fleet
    ~store =
  let slowdown _ ns =
    if Float.is_nan native || native = 0. then []
    else [ Printf.sprintf "\"slowdown_vs_native\": %.2f" (ns /. native) ]
  in
  let no_extra _ _ = [] in
  let corpus_extra name ns =
    (* one benchmark run is a sweep of the whole golden corpus; each
       shared-engine row is compared against the cold row running the
       same policy *)
    let fields =
      [ Printf.sprintf "\"sessions_per_sec\": %.0f"
          (float_of_int corpus_size *. 1e9 /. ns) ]
    in
    match corpus_cold_for corpus name with
    | Some cold when cold > 0. ->
      fields
      @ [ Printf.sprintf "\"speedup_vs_cold\": %.2f" (cold /. ns) ]
    | _ -> fields
  in
  let jobs1_ns =
    match
      List.find_opt (fun (n, _, _) -> n = "fleet/jobs=1") fleet
    with
    | Some (_, ns, _) -> ns
    | None -> nan
  in
  let fleet_extra name ns =
    match List.find_opt (fun (n, _, _) -> n = name) fleet with
    | None -> []
    | Some (_, _, (st : Fleet.Pool.stats)) ->
      let total_rounds = fleet_rounds + 2 (* two warmups *) in
      [ Printf.sprintf "\"host_cores\": %d"
          (Domain.recommended_domain_count ());
        Printf.sprintf "\"sessions_per_sec\": %.0f"
          (float_of_int corpus_size *. 1e9 /. ns);
        Printf.sprintf "\"parks_per_sweep\": %.1f"
          (float_of_int st.parks /. float_of_int total_rounds) ]
      @
      (if Float.is_nan jobs1_ns || jobs1_ns <= 0. then []
       else [ Printf.sprintf "\"speedup_vs_jobs1\": %.2f" (jobs1_ns /. ns) ])
  in
  (* ingest rows: one run is a full corpus sweep; query rows: one run
     is one fleet query, reported as wall-clock latency *)
  let store_buffer_ns =
    match
      List.find_opt (fun (n, _) -> n = "store/ingest buffer sink") store
    with
    | Some (_, ns) -> ns
    | None -> nan
  in
  let store_extra name ns =
    if String.length name >= 13 && String.sub name 0 13 = "store/ingest " then
      Printf.sprintf "\"sessions_per_sec\": %.0f"
        (float_of_int corpus_size *. 1e9 /. ns)
      ::
      (if Float.is_nan store_buffer_ns || store_buffer_ns <= 0. then []
       else
         [ Printf.sprintf "\"overhead_vs_buffer\": %.2f"
             (ns /. store_buffer_ns) ])
    else [ Printf.sprintf "\"latency_ms\": %.3f" (ns /. 1e6) ]
  in
  let doc =
    String.concat "\n"
      [ "{";
        "  \"benchmark\": \"Section 9 performance study\",";
        "  \"unit\": \"ns/run\",";
        json_group "levels" levels slowdown ^ ",";
        json_group "components" components no_extra ^ ",";
        json_group "policy" policies no_extra ^ ",";
        json_group "corpus" corpus corpus_extra ^ ",";
        json_group "fleet"
          (List.map (fun (n, ns, _) -> n, ns) fleet)
          fleet_extra
        ^ ",";
        json_group "store" store store_extra;
        "}" ]
  in
  let oc = open_out path in
  output_string oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let run ?(json_path = "BENCH_perf.json") () =
  Printf.printf
    "\n== Section 9: performance (Bechamel, monotonic clock) ==\n%!";
  let levels = analyze (session_tests ()) in
  let native =
    match
      List.find_opt (fun (n, _) -> n = "harrier-levels/native (no monitor)")
        levels
    with
    | Some (_, ns) -> ns
    | None -> nan
  in
  Grid.print ~title:"Monitoring levels on the copy/checksum workload (~60k instructions)"
    ~headers:[ "Configuration"; "time/run"; "slowdown vs native" ]
    (List.map
       (fun (name, ns) ->
         [ name; human_ns ns; Printf.sprintf "%.1fx" (ns /. native) ])
       levels);
  let components = analyze (component_tests ()) in
  Grid.print ~title:"Component micro-benchmarks"
    ~headers:[ "Component"; "time/run" ]
    (List.map (fun (name, ns) -> [ name; human_ns ns ]) components);
  let policies = analyze (policy_tests ()) in
  Grid.print ~title:"Secpert policy engines (same event stream)"
    ~headers:[ "Policy"; "time/run" ]
    (List.map (fun (name, ns) -> [ name; human_ns ns ]) policies);
  let corpus = corpus_results () in
  Grid.print
    ~title:
      (Printf.sprintf "Corpus throughput (%d golden scenarios per sweep)"
         corpus_size)
    ~headers:
      [ "Configuration"; "time/sweep"; "sessions/s"; "vs cold (same policy)" ]
    (List.map
       (fun (name, ns) ->
         [ name; human_ns ns;
           Printf.sprintf "%.0f" (float_of_int corpus_size *. 1e9 /. ns);
           (match corpus_cold_for corpus name with
            | Some cold when cold > 0. -> Printf.sprintf "%.2fx" (cold /. ns)
            | _ -> "-") ])
       corpus);
  let fleet = fleet_results () in
  let jobs1 =
    match List.find_opt (fun (n, _, _) -> n = "fleet/jobs=1") fleet with
    | Some (_, ns, _) -> ns
    | None -> nan
  in
  Grid.print
    ~title:
      (Printf.sprintf
         "Fleet scaling (%d golden scenarios per sweep, %d host cores)"
         corpus_size
         (Domain.recommended_domain_count ()))
    ~headers:
      [ "Configuration"; "time/sweep"; "sessions/s"; "vs jobs=1" ]
    (List.map
       (fun (name, ns, _) ->
         [ name; human_ns ns;
           Printf.sprintf "%.0f" (float_of_int corpus_size *. 1e9 /. ns);
           Printf.sprintf "%.2fx" (jobs1 /. ns) ])
       fleet);
  let ingest = store_ingest_results () in
  let buffer_ns =
    match
      List.find_opt (fun (n, _) -> n = "store/ingest buffer sink") ingest
    with
    | Some (_, ns) -> ns
    | None -> nan
  in
  Grid.print
    ~title:
      (Printf.sprintf
         "Store ingest (%d golden scenarios per sweep, traces on)"
         corpus_size)
    ~headers:
      [ "Sink"; "time/sweep"; "sessions/s"; "vs buffer sink" ]
    (List.map
       (fun (name, ns) ->
         [ name; human_ns ns;
           Printf.sprintf "%.0f" (float_of_int corpus_size *. 1e9 /. ns);
           Printf.sprintf "%.2fx" (ns /. buffer_ns) ])
       ingest);
  let queries = store_query_results () in
  Grid.print
    ~title:"Fleet queries (store of one golden sweep, index-only reads)"
    ~headers:[ "Query"; "latency" ]
    (List.map (fun (name, ns) -> [ name; human_ns ns ]) queries);
  write_json json_path ~levels ~native ~components ~policies ~corpus ~fleet
    ~store:(ingest @ queries)
