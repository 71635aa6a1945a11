(* bench-smoke: runs every bench code path with tiny iteration counts
   so the benchmark harness can't bit-rot.  Wired into `dune runtest`
   (see bench/dune); takes well under a second. *)

let check name cond = if not cond then failwith ("bench smoke: " ^ name)

let () =
  (* session monitoring levels, one short run each *)
  let sc = Guest.Perf_workload.scenario ~iters:2 in
  ignore (Hth.Engine.run_unmonitored sc.sc_setup);
  List.iter
    (fun cfg -> ignore (Guest.Scenario.run ~monitor_config:cfg sc))
    [ Perf.bare_config; Perf.freq_config; Perf.dataflow_config;
      Harrier.Monitor.default_config ];
  (* component micro-operations *)
  let u = Taint.Tagset.union Perf.sp Perf.tag_a Perf.tag_b in
  check "union memoized"
    (Taint.Tagset.equal u (Taint.Tagset.union Perf.sp Perf.tag_b Perf.tag_a));
  let shadow =
    Harrier.Shadow.create ~space:Perf.sp ~counts:(Harrier.Shadow.counts ()) ()
  in
  let straddle = 0x1000 - 8 in
  Harrier.Shadow.set_range shadow straddle 64 u;
  check "straddling range"
    (Taint.Tagset.equal u (Harrier.Shadow.range shadow straddle 64));
  check "tagged bytes" (Harrier.Shadow.tagged_bytes shadow = 64);
  Harrier.Shadow.set_range shadow straddle 64 Taint.Tagset.empty;
  check "cleared" (Harrier.Shadow.tagged_bytes shadow = 0);
  Perf.wm_inference ();
  Perf.secpert_execve_workload ();
  (* corpus throughput paths: a cold sweep and a shared-engine sweep
     must agree on warnings for every golden scenario *)
  let scs = Perf.golden_corpus () in
  check "golden corpus present" (List.length scs = Perf.corpus_size);
  let eng = Hth.Engine.create () in
  List.iter
    (fun (sc : Guest.Scenario.t) ->
      let cold = Guest.Scenario.run sc in
      let warm = Hth.Engine.run eng sc.sc_setup in
      check
        ("engine verdict matches cold: " ^ sc.sc_name)
        (cold.max_severity = warm.max_severity
        && List.map Secpert.Warning.to_string cold.warnings
           = List.map Secpert.Warning.to_string warm.warnings))
    scs;
  Perf.sweep (Hth.Engine.run eng) scs ();
  (* fleet path: a 2-worker sweep must agree with the shared
     engine on every verdict, in submission order *)
  let fleet =
    Fleet.Supervisor.create ~jobs:2 [ "default", Hth.Engine.create () ]
  in
  let outs =
    Fleet.Supervisor.run_all fleet
      (List.map
         (fun (sc : Guest.Scenario.t) -> Fleet.Executor.job sc.sc_setup)
         scs)
  in
  Fleet.Supervisor.shutdown fleet;
  check "fleet outcome count" (List.length outs = List.length scs);
  List.iter2
    (fun (sc : Guest.Scenario.t) (o : Fleet.Executor.outcome) ->
      match o.o_result with
      | Error e ->
        failwith
          ("bench smoke: fleet error on " ^ sc.sc_name ^ ": "
          ^ Hth.Error.to_string e)
      | Ok r ->
        let direct = Hth.Engine.run eng sc.sc_setup in
        check
          ("fleet verdict matches engine: " ^ sc.sc_name)
          (r.max_severity = direct.max_severity))
    scs outs;
  check "fleet executed counted"
    ((Fleet.Supervisor.stats fleet).executed = List.length scs);
  (* observability: counters move, the JSONL trace is byte-deterministic,
     and the no-op sink is restored afterwards *)
  let r = Guest.Scenario.run sc in
  let stat name = Option.value (List.assoc_opt name r.stats) ~default:0 in
  check "instructions counted" (stat "vm.instructions" > 0);
  check "syscalls counted" (stat "osim.syscalls" > 0);
  check "warnings counted" (stat "secpert.warnings" = List.length r.warnings);
  let capture () =
    let buf = Buffer.create 512 in
    Obs.Trace.to_buffer buf;
    Fun.protect ~finally:Obs.Trace.disable (fun () ->
        ignore (Guest.Scenario.run sc));
    Buffer.contents buf
  in
  let t1 = capture () in
  check "trace non-empty" (String.length t1 > 0);
  check "trace deterministic" (String.equal t1 (capture ()));
  check "no-op sink restored" (not (Obs.Trace.enabled ()));
  (* store bench path: build the query store in a temp dir, answer
     each fleet query once, tear it down *)
  let store_dir = Filename.temp_file "bench_smoke_store" "" in
  Sys.remove store_dir;
  Perf.build_store store_dir;
  (match Store.Warehouse.load store_dir with
   | Error e -> failwith ("bench smoke: store load: " ^ Hth.Error.to_string e)
   | Ok view ->
     check "store holds the corpus"
       (List.length view.v_entries = Perf.corpus_size);
     (match
        Store.Fleet_query.query view
          { Store.Fleet_query.no_filter with q_severity = Some "HIGH" }
      with
      | Ok hits -> check "severity query hits" (hits <> [])
      | Error e -> failwith ("bench smoke: query: " ^ Hth.Error.to_string e));
     (match Store.Fleet_query.profile view with
      | Ok blocks -> check "fleet profile nonempty" (blocks <> [])
      | Error e ->
        failwith ("bench smoke: profile: " ^ Hth.Error.to_string e));
     (match Store.Fleet_query.diff view ~run:"pma" with
      | Ok (_, compared) -> check "fleet diff compared" (compared > 0)
      | Error e -> failwith ("bench smoke: diff: " ^ Hth.Error.to_string e)));
  Perf.remove_store store_dir;
  (* the JSON emitter *)
  let tmp = Filename.temp_file "bench_smoke" ".json" in
  Perf.write_json tmp
    ~levels:[ "harrier-levels/native (no monitor)", 1e6 ]
    ~native:1e6
    ~components:[ "components/tagset union (interned, memo hit)", 10. ]
    ~policies:[ "policy/native rules (20 transfers)", 1e5 ]
    ~corpus:
      [ "corpus/cold per-session setup (native)", 2e6;
        "corpus/shared engine (native)", 1e6 ]
    ~fleet:
      [ "fleet/jobs=1", 2e6,
        { Fleet.Pool.executed = 9; stolen = 0; injected = 9; parks = 0;
          exceptions = 0; respawns = 0 };
        "fleet/jobs=2", 1e6,
        { Fleet.Pool.executed = 9; stolen = 0; injected = 9; parks = 1;
          exceptions = 0; respawns = 0 } ]
    ~store:
      [ "store/ingest buffer sink", 2e6;
        "store/ingest segment sink (64KiB chunks)", 2.4e6;
        "store/fleet profile", 1e5 ];
  Sys.remove tmp;
  print_endline "bench smoke ok"
