(* Section 9: performance evaluation.

   The paper's finding is that Harrier's naive data-flow tracking
   dominates the cost; we reproduce the shape by running the same guest
   workload under increasing levels of monitoring and reporting the
   slowdown relative to the unmonitored simulator.  Component
   micro-benchmarks (tag-set union, shadow updates, expert-system
   inference) localize the cost, echoing the paper's discussion. *)

(* ------------------------------------------------------------------ *)
(* The one timing method.  A sample is the monotonic-clock time of one
   batch of calls divided by the batch size.  Every row of a group runs
   once per round, in an order reversed every other round, so a change
   in the host's speed, or GC debt one row leaves behind, falls on all
   rows of the group alike rather than on whichever ran last.  A row
   reports the median and the two quartiles of its samples. *)

type row = { name : string; median : float; q1 : float; q3 : float }

(* samples per row in [run] *)
let rounds = 101

(* calls per sample: one for rows of session size; nanosecond-scale
   rows run in batches, so a sample is far above the clock's cost *)
let batch = 10_000

let measure ~rounds specs =
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let samples = Array.make_matrix n rounds 0. in
  let sample (_, batch, f) =
    let t0 = Monotonic_clock.now () in
    for _ = 1 to batch do
      f ()
    done;
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. float batch
  in
  Array.iter (fun s -> ignore (sample s)) specs;
  for r = 0 to rounds - 1 do
    for k = 0 to n - 1 do
      let i = if r land 1 = 0 then k else n - 1 - k in
      samples.(i).(r) <- sample specs.(i)
    done
  done;
  List.mapi
    (fun i (name, _, _) ->
      let s = samples.(i) in
      Array.sort Float.compare s;
      let q k = s.((rounds - 1) * k / 4) in
      { name; q1 = q 1; median = q 2; q3 = q 3 })
    (Array.to_list specs)

(* ------------------------------------------------------------------ *)
(* The ablation ladder: each rung adds one monitoring feature to the
   same instruction-dense copy/checksum kernel (~60k instructions), so
   per-instruction monitoring dominates.  Each monitored rung runs on
   its own warm engine, as a long-lived service would. *)

let levels () =
  let sc = Guest.Perf_workload.scenario ~iters:100 in
  let rung name config =
    let eng = Hth.Engine.create ~monitor_config:config () in
    "harrier-levels/" ^ name, 1,
    fun () -> ignore (Hth.Engine.run eng sc.sc_setup)
  in
  let full = Harrier.Monitor.default_config in
  [ ("harrier-levels/native (no monitor)", 1,
     fun () -> ignore (Hth.Engine.run_unmonitored sc.sc_setup));
    rung "+syscall monitor"
      { full with track_dataflow = false; track_frequency = false;
        shortcircuit = [] };
    rung "+bb frequency"
      { full with track_dataflow = false; shortcircuit = [] };
    rung "+dataflow" { full with track_frequency = false };
    rung "full HTH" full ]

(* ------------------------------------------------------------------ *)
(* Components. *)

(* one arena for every tag set this benchmark interns *)
let sp = Taint.Tagset.make_space ()

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

let meta = { Harrier.Events.pid = 1; time = 10; freq = 1; addr = 0; step = 0 }

let secpert_execve_workload () =
  let secpert = Secpert.System.create () in
  let res : Harrier.Events.resource =
    { r_kind = Harrier.Events.R_file; r_name = "/bin/ls";
      r_origin = (Taint.Tagset.singleton sp) (Taint.Source.Binary "/bin/x") }
  in
  for _ = 1 to 50 do
    ignore
      (Secpert.System.handle_event secpert
         (Harrier.Events.Exec { path = res; argv = []; meta }))
  done

let components () =
  let shadow =
    Harrier.Shadow.create ~space:sp ~counts:(Harrier.Shadow.counts ()) ()
  in
  (* crosses the 4 KiB page boundary on purpose *)
  let straddle_addr = 0x8000 - 8 in
  [ ("components/tagset union (interned, memo hit)", batch,
     fun () -> ignore ((Taint.Tagset.union sp) tag_a tag_b));
    ("components/tagset equal (pointer)", batch,
     fun () -> ignore (Taint.Tagset.equal tag_a tag_b));
    ("components/shadow 4-byte store+load", batch,
     fun () ->
       Harrier.Shadow.set_range shadow 0x8000 4 tag_a;
       ignore (Harrier.Shadow.range shadow 0x8000 4));
    ("components/shadow 64-byte range ops (page straddle)", batch,
     fun () ->
       Harrier.Shadow.set_range shadow straddle_addr 64 tag_b;
       ignore (Harrier.Shadow.range shadow straddle_addr 64));
    "components/indexed-WM inference (200 facts, 2-pat join)", 1, wm_inference;
    "components/secpert 50 execve events", 1, secpert_execve_workload ]

(* native vs textual-CLIPS policy on the same event stream, and the
   CLIPS policy's parse, which an engine pays once *)
let policy () =
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
  [ "policy/native rules (20 transfers)", 1, feed Secpert.System.Native;
    "policy/textual CLIPS (20 transfers)", 1, feed Secpert.System.Clips;
    ("policy/textual CLIPS compile", 1,
     fun () -> ignore (Secpert.System.compile Secpert.System.Clips)) ]

(* ------------------------------------------------------------------ *)
(* Trace warehouse: fleet-query latency against a store of the nine
   golden scenarios built in a temp directory.  Queries read the
   manifest and segment indexes only, so each call includes the real
   per-segment file I/O the CLI pays. *)

let golden_names =
  [ "ElmExploit"; "nlspath"; "procex"; "grabem"; "vixie crontab";
    "pma"; "superforker"; "ls"; "column" ]

let or_fail = function
  | Ok v -> v
  | Error e -> failwith (Hth.Error.to_string e)

let build_store dir =
  let wh = or_fail (Store.Warehouse.open_ dir) in
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
    (List.filter_map Guest.Corpus.find golden_names);
  Store.Warehouse.close wh

(* [with_store f] calls [f] on the loaded view of a fresh golden store;
   a store is a flat directory (the manifest and the segment pack) and
   is removed afterwards *)
let with_store f =
  let dir = Filename.temp_file "hth_bench_store" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun n -> Sys.remove (Filename.concat dir n))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () ->
      build_store dir;
      f (or_fail (Store.Warehouse.load dir)))

let store_queries view =
  [ ("store/fleet query (severity=HIGH)", 1,
     fun () ->
       ignore
         (or_fail
            (Store.Fleet_query.query view
               { Store.Fleet_query.no_filter with q_severity = Some "HIGH" })));
    ("store/fleet profile", 1,
     fun () -> ignore (or_fail (Store.Fleet_query.profile view)));
    ("store/fleet diff (pma)", 1,
     fun () -> ignore (or_fail (Store.Fleet_query.diff view ~run:"pma"))) ]

(* ------------------------------------------------------------------ *)
(* The study: every group measured, then printed and written. *)

let study ~rounds =
  [ "levels", measure ~rounds (levels ());
    "components", measure ~rounds (components ());
    "policy", measure ~rounds (policy ());
    "store", with_store (fun view -> measure ~rounds (store_queries view)) ]

(* the ladder's first rung *)
let native_ns groups = (List.hd (List.assoc "levels" groups)).median

let human_ns ns =
  if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let titles =
  [ "levels", "Monitoring levels on the copy/checksum workload (~60k instructions)";
    "components", "Component micro-benchmarks";
    "policy", "Secpert policy engines (same event stream)";
    "store", "Fleet queries (store of one golden sweep, index-only reads)" ]

let print groups =
  let native = native_ns groups in
  List.iter
    (fun (group, rows) ->
      let ladder = group = "levels" in
      Grid.print ~title:(List.assoc group titles)
        ~headers:
          ([ "Row"; "median"; "quartiles" ]
          @ if ladder then [ "slowdown vs native" ] else [])
        (List.map
           (fun r ->
             [ r.name; human_ns r.median;
               human_ns r.q1 ^ " - " ^ human_ns r.q3 ]
             @
             if ladder then [ Printf.sprintf "%.2fx" (r.median /. native) ]
             else [])
           rows))
    groups

let json_method =
  "each round runs every row of a group once, order reversed every other \
   round; a sample is a batch's monotonic-clock time over its size; \
   ns_per_run is the samples' median, q1_ns and q3_ns their quartiles"

(* Machine-readable results, one row per line. *)
let write_json path ~rounds groups =
  let native = native_ns groups in
  let entry group r =
    Printf.sprintf
      "    {\"name\": %s, \"ns_per_run\": %.1f, \"q1_ns\": %.1f, \"q3_ns\": %.1f%s}"
      (Obs.json_string r.name) r.median r.q1 r.q3
      (if group = "levels" then
         Printf.sprintf ", \"slowdown_vs_native\": %.2f" (r.median /. native)
       else "")
  in
  let group_json (group, rows) =
    Printf.sprintf "  \"%s\": [\n%s\n  ]" group
      (String.concat ",\n" (List.map (entry group) rows))
  in
  let doc =
    String.concat ",\n"
      ([ "{\n  \"benchmark\": \"Section 9 performance study\"";
         "  \"unit\": \"ns/run\"";
         "  \"method\": " ^ Obs.json_string json_method;
         Printf.sprintf "  \"rounds\": %d" rounds;
         Printf.sprintf "  \"host_cores\": %d"
           (Domain.recommended_domain_count ()) ]
      @ List.map group_json groups)
    ^ "\n}\n"
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc doc);
  Printf.printf "wrote %s\n%!" path

let run ?(json_path = "BENCH_perf.json") () =
  Printf.printf "\n== Section 9: performance (%d interleaved rounds) ==\n%!"
    rounds;
  let groups = study ~rounds in
  print groups;
  write_json json_path ~rounds groups
