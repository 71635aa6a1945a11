(* bench-smoke: runs every bench code path at a few rounds so the
   benchmark harness can't bit-rot.  Wired into `dune runtest` (see
   bench/dune); takes well under a second. *)

let check name cond = if not cond then failwith ("bench smoke: " ^ name)

let () =
  (* component micro-operations compute what their rows time *)
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
  (* observability: counters move, the JSONL trace is byte-deterministic,
     and the no-op sink is restored afterwards *)
  let sc = Guest.Perf_workload.scenario ~iters:2 in
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
  (* the store the query rows read holds the golden corpus, and every
     query finds something *)
  Perf.with_store (fun view ->
      check "store holds the corpus"
        (List.length view.v_entries = List.length Perf.golden_names);
      check "severity query hits"
        (Perf.or_fail
           (Store.Fleet_query.query view
              { Store.Fleet_query.no_filter with q_severity = Some "HIGH" })
        <> []);
      check "fleet profile nonempty"
        (Perf.or_fail (Store.Fleet_query.profile view) <> []);
      check "fleet diff compared"
        (snd (Perf.or_fail (Store.Fleet_query.diff view ~run:"pma")) > 0));
  (* every group at a few rounds, its rows ordered by their quartiles,
     and the JSON emitter *)
  let rounds = 3 in
  let groups = Perf.study ~rounds in
  List.iter
    (fun (group, rows) ->
      check (group ^ " measured") (rows <> []);
      List.iter
        (fun (row : Perf.row) ->
          check
            (row.name ^ ": q1 <= median <= q3")
            (row.q1 <= row.median && row.median <= row.q3))
        rows)
    groups;
  let tmp = Filename.temp_file "bench_smoke" ".json" in
  Perf.write_json tmp ~rounds groups;
  Sys.remove tmp;
  print_endline "bench smoke ok"
