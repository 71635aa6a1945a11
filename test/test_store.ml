(* The trace warehouse: framing, compression, indexing, manifest and
   fleet determinism.

   The contract under test (DESIGN.md §18): a stored segment
   reconstructs the session's JSONL trace byte-for-byte, the embedded
   index agrees with what a full parse of the trace would find, a
   truncated or corrupted segment fails with a typed Load_failure (never
   a silently shorter answer), and two warehouses built from the same
   corpus — whatever the worker count — are byte-identical, manifest
   and segments alike. *)

open QCheck

let golden_scenarios =
  [ "ElmExploit"; "nlspath"; "procex"; "grabem"; "vixie crontab"; "pma";
    "superforker"; "ls"; "column" ]

(* three dormant families in their trigger-hit mode: the longest, most
   index-dense traces the corpus produces *)
let dormant_scenarios =
  [ "sleeper daemon triggered"; "logic bomb triggered";
    "update client triggered" ]

let corpus = golden_scenarios @ dormant_scenarios

let find name =
  match Guest.Corpus.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "scenario %S missing from corpus" name

(* Run one session with the tee sink — the exact wiring `hth_run --trace
   --store` and the batch executor use — returning the reference trace
   bytes and the sealed segment. *)
let capture ?chunk_bytes (sc : Guest.Scenario.t) =
  let buf = Buffer.create 4096 in
  let w = Store.Segment.Writer.create ?chunk_bytes () in
  let trace =
    Obs.Trace.chunk_target ?threshold:chunk_bytes (fun chunk ->
        Buffer.add_string buf chunk;
        Store.Segment.Writer.add_chunk w chunk)
  in
  (match Hth.Engine.run_outcome (Hth.Engine.create ()) ~trace sc.sc_setup with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "%s: session failed: %s" sc.sc_name
      (Hth.Error.to_string e));
  (Buffer.contents buf, Store.Segment.Writer.seal w)

let count_lines s =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s

(* ------------------------------------------------------------------ *)
(* deflate                                                             *)

let test_deflate_units () =
  let cases =
    [ "";
      "a";
      "hello, world";
      String.make 100_000 'x';
      String.concat "" (List.init 4_000 (fun i -> Printf.sprintf "{\"step\":%d,\"ev\":\"flow\"}\n" i));
      String.init 256 Char.chr;
      String.init 70_000 (fun i -> Char.chr (i * 7919 mod 256)) ]
  in
  List.iter
    (fun s ->
      match Store.Deflate.decompress (Store.Deflate.compress s) with
      | Ok s' ->
        Alcotest.(check int)
          (Printf.sprintf "round-trip length (input %d bytes)"
             (String.length s))
          (String.length s) (String.length s');
        Alcotest.(check bool) "round-trip bytes" true (String.equal s s')
      | Error m -> Alcotest.failf "decompress failed: %s" m)
    cases;
  (* repetitive input must actually shrink — the warehouse's whole
     point *)
  let rep = String.concat "" (List.init 1_000 (fun _ -> "abcabcabc\n")) in
  Alcotest.(check bool) "repetitive input compresses" true
    (String.length (Store.Deflate.compress rep) < String.length rep / 4)

let prop_deflate_roundtrip =
  Test.make ~count:300 ~name:"store: deflate round-trips any string"
    (Gen.oneof
       [ Gen.string_size ~gen:Gen.char (Gen.int_bound 2_000);
         (* repetition-heavy: exercises the LZ77 match path *)
         Gen.map
           (fun (w, n) -> String.concat "" (List.init (n + 1) (fun _ -> w)))
           Gen.(pair (string_size ~gen:printable (int_bound 12))
                  (int_bound 400)) ]
     |> make)
    (fun s ->
      match Store.Deflate.decompress (Store.Deflate.compress s) with
      | Ok s' -> String.equal s s'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* segment round-trip over the corpus                                  *)

let test_corpus_roundtrip () =
  List.iter
    (fun name ->
      let sc = find name in
      let raw, sealed = capture sc in
      Alcotest.(check int)
        (name ^ ": sealed step count = trace lines")
        (count_lines raw) sealed.Store.Segment.s_steps;
      Alcotest.(check int)
        (name ^ ": sealed raw_bytes")
        (String.length raw) sealed.Store.Segment.s_raw_bytes;
      match Store.Segment.load ~path:name sealed.Store.Segment.s_bytes with
      | Error e -> Alcotest.failf "%s: load failed: %s" name (Hth.Error.to_string e)
      | Ok l ->
        Alcotest.(check bool)
          (name ^ ": reconstructed trace byte-identical")
          true
          (String.equal raw l.Store.Segment.l_raw);
        Alcotest.(check bool)
          (name ^ ": load returns the sealed index")
          true
          (l.Store.Segment.l_index = sealed.Store.Segment.s_index);
        (* the cheap path agrees with the full decode *)
        (match
           Store.Segment.load_index ~path:name sealed.Store.Segment.s_bytes
         with
        | Error e ->
          Alcotest.failf "%s: load_index failed: %s" name
            (Hth.Error.to_string e)
        | Ok (ix, steps, raw_bytes) ->
          Alcotest.(check bool)
            (name ^ ": load_index = load's index")
            true
            (ix = l.Store.Segment.l_index);
          Alcotest.(check int) (name ^ ": load_index steps")
            sealed.Store.Segment.s_steps steps;
          Alcotest.(check int)
            (name ^ ": load_index raw_bytes")
            (String.length raw) raw_bytes))
    corpus

(* The index must agree with a full parse of the trace: same warnings,
   same embedded counters, same hot blocks, and every name posting's
   step really is a flow line naming it. *)
let test_index_matches_trace () =
  List.iter
    (fun name ->
      let sc = find name in
      let raw, sealed = capture sc in
      let ix = sealed.Store.Segment.s_index in
      let lines =
        String.split_on_char '\n' raw
        |> List.filter (fun l -> l <> "")
        |> List.map (fun l ->
               match Forensics.Jsonl.parse_line l with
               | Ok fields -> fields
               | Error m -> Alcotest.failf "%s: bad trace line: %s" name m)
      in
      let ev fields =
        match List.assoc_opt "ev" fields with
        | Some (Forensics.Jsonl.Str s) -> s
        | _ -> ""
      in
      let count k = List.length (List.filter (fun f -> ev f = k) lines) in
      Alcotest.(check int)
        (name ^ ": one index warning per warning line")
        (count "warning")
        (List.length ix.Store.Segment.ix_warnings);
      Alcotest.(check int)
        (name ^ ": one index counter per counter line")
        (count "counter")
        (List.length ix.Store.Segment.ix_counters);
      Alcotest.(check int)
        (name ^ ": one index block per hot_block line")
        (count "hot_block")
        (List.length ix.Store.Segment.ix_blocks);
      (* spot-check name postings against the trace by step *)
      let nth_fields step = List.nth lines step in
      List.iter
        (fun (posted, steps) ->
          List.iter
            (fun step ->
              let fields = nth_fields step in
              Alcotest.(check bool)
                (Printf.sprintf "%s: step %d is a flow line naming %S" name
                   step posted)
                true
                (ev fields = "flow"
                && List.exists
                     (function
                       | ( ("res_name" | "target_name" | "server_name"
                           | "call"),
                           Forensics.Jsonl.Str v ) -> v = posted
                       | _ -> false)
                     fields))
            steps)
        ix.Store.Segment.ix_names)
    [ "pma"; "sleeper daemon triggered" ]

(* ------------------------------------------------------------------ *)
(* corruption: complete-or-typed-failure, never a shorter answer       *)

let is_load_failure = function
  | Error (Hth.Error.Load_failure _) -> true
  | _ -> false

let test_corruption () =
  let sc = find "pma" in
  let _, sealed = capture sc in
  let bytes = sealed.Store.Segment.s_bytes in
  let n = String.length bytes in
  (* truncation at assorted depths: inside the magic, inside a frame
     header, inside a payload, just before the end frame *)
  List.iter
    (fun keep ->
      Alcotest.(check bool)
        (Printf.sprintf "truncation to %d/%d bytes is a Load_failure" keep n)
        true
        (is_load_failure
           (Store.Segment.load ~path:"trunc" (String.sub bytes 0 keep))))
    [ 0; 4; String.length Store.Frame.magic + 3; n / 2; n - 1 ];
  (* a flipped payload byte must fail the checksum *)
  let flipped =
    String.mapi
      (fun i c -> if i = n / 2 then Char.chr (Char.code c lxor 0x40) else c)
      bytes
  in
  Alcotest.(check bool) "bit flip is a Load_failure" true
    (is_load_failure (Store.Segment.load ~path:"flip" flipped));
  (* garbage after the end frame is corruption, not slack *)
  Alcotest.(check bool) "trailing garbage is a Load_failure" true
    (is_load_failure (Store.Segment.load ~path:"trail" (bytes ^ "x")))

(* ------------------------------------------------------------------ *)
(* index consistency under arbitrary line-aligned chunkings            *)

(* The sink only ever hands the writer whole lines, but chunk sizes
   vary with the threshold and flush timing.  Whatever the chunking,
   the reconstructed bytes and the semantic index (warnings, names,
   blocks, counters) must not change; only ix_chunks — the physical
   layout — may, and even it must tile the trace exactly. *)
let prop_index_chunking_invariant =
  let sc = find "pma" in
  let raw, reference = capture sc in
  let lines =
    String.split_on_char '\n' raw
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l -> l ^ "\n")
  in
  Test.make ~count:60
    ~name:"store: index invariant under line-aligned re-chunking"
    (make Gen.(list_size (int_range 1 20) (int_range 1 30)))
    (fun sizes ->
      let w = Store.Segment.Writer.create () in
      let rec feed lines sizes =
        match lines with
        | [] -> ()
        | _ ->
          let k, rest_sizes =
            match sizes with
            | s :: tl -> (s, tl)
            | [] -> (max 1 (List.length lines), [])
          in
          let chunk = List.filteri (fun i _ -> i < k) lines in
          let rest = List.filteri (fun i _ -> i >= k) lines in
          Store.Segment.Writer.add_chunk w (String.concat "" chunk);
          feed rest rest_sizes
      in
      feed lines sizes;
      let sealed = Store.Segment.Writer.seal w in
      let ix = sealed.Store.Segment.s_index
      and ref_ix = reference.Store.Segment.s_index in
      let reconstructs =
        match Store.Segment.load ~path:"prop" sealed.Store.Segment.s_bytes with
        | Ok l -> String.equal l.Store.Segment.l_raw raw
        | Error _ -> false
      in
      let chunks_tile =
        (* raw offsets strictly advance (chunks are nonempty) and steps
           tile [0, s_steps) exactly *)
        let rec offsets_ok = function
          | [] -> true
          | [ (c : Store.Segment.chunk) ] ->
            c.c_raw_off <= sealed.Store.Segment.s_raw_bytes
          | (a : Store.Segment.chunk) :: (b :: _ as tl) ->
            a.c_raw_off < b.c_raw_off && offsets_ok tl
        in
        let rec steps_ok step = function
          | [] -> step = sealed.Store.Segment.s_steps
          | (c : Store.Segment.chunk) :: tl ->
            c.c_first_step = step && steps_ok (step + c.c_lines) tl
        in
        steps_ok 0 sealed.Store.Segment.s_index.Store.Segment.ix_chunks
        && offsets_ok sealed.Store.Segment.s_index.Store.Segment.ix_chunks
      in
      reconstructs && chunks_tile
      && ix.Store.Segment.ix_warnings = ref_ix.Store.Segment.ix_warnings
      && ix.Store.Segment.ix_names = ref_ix.Store.Segment.ix_names
      && ix.Store.Segment.ix_blocks = ref_ix.Store.Segment.ix_blocks
      && ix.Store.Segment.ix_counters = ref_ix.Store.Segment.ix_counters)

(* ------------------------------------------------------------------ *)
(* warehouse determinism across worker counts                          *)

let fresh_dir =
  let n = ref 0 in
  fun prefix ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !n)
    in
    if Sys.file_exists d then
      Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote d)) |> ignore;
    d

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Build a warehouse from the 12-scenario corpus on a [jobs]-worker
   fleet: segments sealed on the workers, appended in submission order
   by the coordinator — the same wiring `hth_run batch --store` uses. *)
let build_store ~jobs dir =
  let engine = Hth.Engine.create ~keep_events:false () in
  let ex = Fleet.Executor.create ~jobs [ "default", engine ] in
  let outcomes =
    Fleet.Executor.run_all ex
      (List.map
         (fun name ->
           Fleet.Executor.job ~trace:true ~store:true (find name).sc_setup)
         corpus)
  in
  Fleet.Executor.shutdown ex;
  let wh =
    match Store.Warehouse.open_ dir with
    | Ok wh -> wh
    | Error e -> Alcotest.failf "open_ %s: %s" dir (Hth.Error.to_string e)
  in
  List.iter2
    (fun name (o : Fleet.Executor.outcome) ->
      let sc = find name in
      let sealed =
        match o.o_segment with
        | Some s -> s
        | None -> Alcotest.failf "%s: no segment in outcome" name
      in
      let verdict, matched =
        match o.o_result with
        | Ok r ->
          let v = Hth.Report.verdict r in
          (Hth.Report.verdict_label v, Guest.Scenario.matches sc.sc_expected v)
        | Error e -> ("error:" ^ Hth.Error.kind e, false)
      in
      let entry =
        { Store.Manifest.e_run = name;
          e_scenario = name;
          e_policy = "native";
          e_seed = None;
          e_fault = None;
          e_verdict = verdict;
          e_expected = Guest.Scenario.expected_label sc.sc_expected;
          e_match = matched;
          e_warnings = 0;
          e_distinct = 0;
          e_degraded = false;
          e_steps = 0;
          e_raw_bytes = 0;
          e_framed_bytes = 0;
          e_digest =
            Store.Manifest.digest sealed.Store.Segment.s_index.ix_counters;
          e_segment = "" }
      in
      ignore (Store.Warehouse.append wh ~entry ~sealed))
    corpus outcomes;
  Store.Warehouse.close wh;
  List.map
    (fun (o : Fleet.Executor.outcome) -> Option.get o.o_trace)
    outcomes

let test_store_determinism () =
  let d1 = fresh_dir "hth-store-j1" and d2 = fresh_dir "hth-store-j2" in
  let traces1 = build_store ~jobs:1 d1 in
  let traces2 = build_store ~jobs:2 d2 in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: trace bytes identical across jobs"
           (List.nth corpus i))
        true (String.equal a b))
    (List.combine traces1 traces2);
  Alcotest.(check bool) "manifests byte-identical" true
    (String.equal
       (read_file (Filename.concat d1 "MANIFEST.jsonl"))
       (read_file (Filename.concat d2 "MANIFEST.jsonl")));
  let view =
    match Store.Warehouse.load d1 with
    | Ok v -> v
    | Error e -> Alcotest.failf "load: %s" (Hth.Error.to_string e)
  in
  List.iter
    (fun (e : Store.Manifest.entry) ->
      Alcotest.(check bool)
        (e.e_run ^ ": segment bytes identical across jobs")
        true
        (String.equal
           (read_file (Filename.concat d1 e.e_segment))
           (read_file (Filename.concat d2 e.e_segment))))
    view.v_entries;
  (* stored answers = live answers: the reconstructed trace is the
     trace the session wrote *)
  List.iteri
    (fun i (e : Store.Manifest.entry) ->
      match Store.Warehouse.raw_trace view e with
      | Error err -> Alcotest.failf "raw_trace: %s" (Hth.Error.to_string err)
      | Ok raw ->
        Alcotest.(check bool)
          (e.e_run ^ ": warehouse reconstructs the live trace")
          true
          (String.equal raw (List.nth traces1 i)))
    view.v_entries

(* Forensic answers from the store match the JSONL path byte-for-byte:
   the determinism gate's in-process twin. *)
let test_store_answers_match_jsonl () =
  let sc = find "pma" in
  let raw, sealed = capture sc in
  let from_store =
    match Store.Segment.load ~path:"pma" sealed.Store.Segment.s_bytes with
    | Ok l -> l.Store.Segment.l_raw
    | Error e -> Alcotest.failf "load: %s" (Hth.Error.to_string e)
  in
  let render source =
    match Forensics.Reader.of_string source with
    | Error m -> Alcotest.failf "reader: %s" m
    | Ok t ->
      let explain = Fmt.str "%a" Forensics.Chain.pp_chains (Forensics.Chain.explain t) in
      let profile =
        Fmt.str "%a"
          (fun ppf p -> Forensics.Profile.pp ~top:10 ppf p)
          (Forensics.Profile.of_trace t)
      in
      explain ^ "\n" ^ profile
  in
  Alcotest.(check string) "explain+profile identical from store"
    (render raw) (render from_store)

(* ------------------------------------------------------------------ *)
(* fleet queries                                                       *)

let test_fleet_queries () =
  let dir = fresh_dir "hth-store-q" in
  ignore (build_store ~jobs:2 dir);
  let view =
    match Store.Warehouse.load dir with
    | Ok v -> v
    | Error e -> Alcotest.failf "load: %s" (Hth.Error.to_string e)
  in
  (* verdict metadata predicate *)
  (match
     Store.Fleet_query.query view
       { Store.Fleet_query.no_filter with q_scenario = Some "pma" }
   with
  | Ok [ hit ] ->
    Alcotest.(check string) "scenario filter finds pma" "pma"
      hit.h_entry.e_scenario
  | Ok hits -> Alcotest.failf "expected 1 pma hit, got %d" (List.length hits)
  | Error e -> Alcotest.failf "query: %s" (Hth.Error.to_string e));
  (* index predicate with evidence steps *)
  (match
     Store.Fleet_query.query view
       { Store.Fleet_query.no_filter with q_severity = Some "HIGH" }
   with
  | Error e -> Alcotest.failf "query: %s" (Hth.Error.to_string e)
  | Ok hits ->
    Alcotest.(check bool) "severity query finds suspicious runs" true
      (List.length hits > 0);
    List.iter
      (fun (h : Store.Fleet_query.hit) ->
        Alcotest.(check bool)
          (h.h_entry.e_run ^ ": every hit carries evidence steps")
          true
          (h.h_steps <> [] && List.sort_uniq compare h.h_steps = h.h_steps))
      hits);
  (* a predicate nothing satisfies *)
  (match
     Store.Fleet_query.query view
       { Store.Fleet_query.no_filter with q_rule = Some "no-such-rule" }
   with
  | Ok [] -> ()
  | Ok hits -> Alcotest.failf "expected no hits, got %d" (List.length hits)
  | Error e -> Alcotest.failf "query: %s" (Hth.Error.to_string e));
  (* profile aggregates and orders deterministically *)
  (match Store.Fleet_query.profile view with
  | Error e -> Alcotest.failf "profile: %s" (Hth.Error.to_string e)
  | Ok blocks ->
    Alcotest.(check bool) "profile nonempty" true (blocks <> []);
    let rec sorted = function
      | (a : Store.Fleet_query.block) :: (b :: _ as tl) ->
        (a.b_count > b.b_count
        || (a.b_count = b.b_count && (a.b_pid, a.b_addr) < (b.b_pid, b.b_addr)))
        && sorted tl
      | _ -> true
    in
    Alcotest.(check bool) "profile order: count desc, then (pid,addr)" true
      (sorted blocks));
  (* diff vs fleet median: self-describing totals, missing run is typed *)
  (match Store.Fleet_query.diff view ~run:"pma" with
  | Error e -> Alcotest.failf "diff: %s" (Hth.Error.to_string e)
  | Ok (drifts, compared) ->
    Alcotest.(check bool) "diff compares a positive counter surface" true
      (compared > 0 && List.length drifts <= compared);
    List.iter
      (fun (d : Store.Fleet_query.drift) ->
        Alcotest.(check bool) (d.d_name ^ ": drift rows really drift") true
          (d.d_value <> d.d_median))
      drifts);
  match Store.Fleet_query.diff view ~run:"no-such-run" with
  | Error (Hth.Error.Load_failure _) -> ()
  | Error e ->
    Alcotest.failf "expected Load_failure, got %s" (Hth.Error.to_string e)
  | Ok _ -> Alcotest.fail "diff of a missing run must fail"

(* ------------------------------------------------------------------ *)
(* seeded qcheck wrapper (same idiom as test_props)                     *)

let seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s when int_of_string_opt (String.trim s) <> None ->
    int_of_string (String.trim s)
  | _ ->
    Random.self_init ();
    Random.int 1_000_000_000

let to_alcotest_seeded test =
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test
  in
  let run () =
    try run ()
    with e ->
      Printf.eprintf
        "\n[qcheck] reproduce this failure with: QCHECK_SEED=%d dune \
         runtest --force\n\
         %!"
        seed;
      raise e
  in
  (name, speed, run)

let suite =
  [ Alcotest.test_case "deflate: unit round-trips" `Quick test_deflate_units;
    to_alcotest_seeded prop_deflate_roundtrip;
    Alcotest.test_case "segment: 12-scenario corpus round-trip" `Quick
      test_corpus_roundtrip;
    Alcotest.test_case "segment: index matches a full trace parse" `Quick
      test_index_matches_trace;
    Alcotest.test_case "segment: corruption is a typed Load_failure" `Quick
      test_corruption;
    to_alcotest_seeded prop_index_chunking_invariant;
    Alcotest.test_case "warehouse: byte-identical across jobs 1 and 2"
      `Quick test_store_determinism;
    Alcotest.test_case "store answers = jsonl answers" `Quick
      test_store_answers_match_jsonl;
    Alcotest.test_case "fleet queries: search, profile, diff" `Quick
      test_fleet_queries ]
