(* Forensic provenance: the offline analysis layer (lib/forensics) and
   the evidence chains the monitor records for it.

   What ISSUE 4 pins down:
   - the JSONL parser inverts exactly what [Obs.Trace] emits;
   - [Chain.explain] on a committed golden reproduces the committed
     rendering byte for byte (no re-execution anywhere);
   - the provenance property: every warning in every recorded trace —
     clean or fault-injected — carries a non-empty evidence chain whose
     fact steps resolve to real flow events of that same trace;
   - [Profile.of_trace] reproduces the live run's [--stats] numbers
     from the embedded counter / hot_block lines;
   - the counter-name surface is stable against the committed list. *)

let seeds = [ 1; 2; 3; 7; 42 ]

let corpus_slice =
  [ "pma"; "grabem"; "superforker"; "text download"; "vixie crontab";
    "stealth dropper" ]

let scenario name =
  match Guest.Corpus.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "scenario %S missing from corpus" name

(* Run [sc] with the JSONL sink captured; always restore the no-op
   sink.  Returns the trace bytes and the session outcome. *)
let traced_run ?fault (sc : Guest.Scenario.t) =
  let buf = Buffer.create 4096 in
  Obs.Trace.to_buffer buf;
  let outcome =
    Fun.protect ~finally:Obs.Trace.disable (fun () ->
        Hth.Engine.run_outcome (Hth.Engine.create ()) ?fault sc.sc_setup)
  in
  (Buffer.contents buf, outcome)

let reader_of_string s =
  match Forensics.Reader.of_string s with
  | Ok t -> t
  | Error m -> Alcotest.failf "trace parse error: %s" m

let reader_of_file path =
  match Forensics.Reader.of_file path with
  | Ok t -> t
  | Error m -> Alcotest.failf "%s: %s" path m

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* JSONL parser inverts the emitter                                    *)

let test_jsonl_roundtrip () =
  let fields =
    [ "neg", Obs.Int (-42);
      "zero", Obs.Int 0;
      "yes", Obs.Bool true;
      "no", Obs.Bool false;
      "plain", Obs.Str "hello";
      "tricky", Obs.Str "quote\" back\\ slash/ nl\n tab\t cr\r";
      "control", Obs.Str "a\x01b\x1fc";
      "bytes", Obs.Str "caf\xc3\xa9" ]
  in
  let buf = Buffer.create 256 in
  Obs.Trace.to_buffer buf;
  Fun.protect ~finally:Obs.Trace.disable (fun () ->
      Obs.Trace.emit "roundtrip" fields);
  let line = String.trim (Buffer.contents buf) in
  match Forensics.Jsonl.parse_line line with
  | Error m -> Alcotest.failf "parse_line failed: %s on %s" m line
  | Ok parsed ->
    let expect name v =
      match List.assoc_opt name parsed with
      | Some got ->
        Alcotest.(check bool) (name ^ " value") true (got = v)
      | None -> Alcotest.failf "field %s missing from %s" name line
    in
    expect "step" (Forensics.Jsonl.Int 0);
    expect "ev" (Forensics.Jsonl.Str "roundtrip");
    List.iter
      (fun (name, v) ->
        expect name
          (match v with
           | Obs.Int n -> Forensics.Jsonl.Int n
           | Obs.Str s -> Forensics.Jsonl.Str s
           | Obs.Bool b -> Forensics.Jsonl.Bool b))
      fields;
    Alcotest.(check int) "field count" (2 + List.length fields)
      (List.length parsed)

let test_jsonl_rejects () =
  List.iter
    (fun line ->
      match Forensics.Jsonl.parse_line line with
      | Ok _ -> Alcotest.failf "parser accepted %S" line
      | Error _ -> ())
    [ ""; "{"; "{}x"; "{\"a\":}"; "{\"a\":1,}"; "{\"a\":\"unterminated}";
      "{\"a\":{\"nested\":1}}"; "[1,2]" ]

(* ------------------------------------------------------------------ *)
(* explain on a committed golden: exact rendering, no re-execution     *)

let test_explain_golden_rendering () =
  let trace = reader_of_file "golden/pma.jsonl" in
  let chains = Forensics.Chain.explain trace in
  let rendered = Fmt.str "%a" Forensics.Chain.pp_chains chains in
  let expected = read_file "golden/pma.explain.txt" in
  Alcotest.(check string)
    "explain output matches committed golden (regenerate with \
     scripts/update_golden.sh)"
    expected rendered

let test_explain_golden_structure () =
  let trace = reader_of_file "golden/pma.jsonl" in
  let chains = Forensics.Chain.explain trace in
  Alcotest.(check int) "pma has four warning chains" 4
    (List.length chains);
  List.iter
    (fun (c : Forensics.Chain.t) ->
      Alcotest.(check bool) "chain has matched facts" true
        (c.facts <> []);
      Alcotest.(check bool) "chain has a firing rule activation" true
        (c.rule <> None);
      Alcotest.(check bool) "chain has taint origins" true
        (c.origins <> []);
      List.iter
        (fun ((fr : Secpert.Evidence.fact_ref), entry) ->
          match entry with
          | None ->
            Alcotest.failf "fact %s#%d@%d does not resolve"
              fr.fr_template fr.fr_id fr.fr_step
          | Some (e : Forensics.Reader.entry) ->
            Alcotest.(check int) "resolved step" fr.fr_step e.step;
            Alcotest.(check string) "facts resolve to flow events"
              "flow" e.ev)
        c.facts)
    chains

(* ------------------------------------------------------------------ *)
(* The provenance property, across the corpus and under faults        *)

let check_provenance name trace_bytes =
  let trace = reader_of_string trace_bytes in
  let warnings =
    List.filter
      (fun (e : Forensics.Reader.entry) -> e.ev = "warning")
      (Forensics.Reader.entries trace)
  in
  let chains = Forensics.Chain.explain trace in
  Alcotest.(check int)
    (name ^ ": one chain per warning line")
    (List.length warnings) (List.length chains);
  List.iter
    (fun (c : Forensics.Chain.t) ->
      let where =
        Fmt.str "%s warning step=%d" name c.warning.Forensics.Reader.step
      in
      Alcotest.(check bool) (where ^ ": non-empty evidence") true
        (c.facts <> []);
      List.iter
        (fun ((fr : Secpert.Evidence.fact_ref), entry) ->
          match entry with
          | None ->
            Alcotest.failf "%s: fact %s#%d@%d has no event at that step"
              where fr.fr_template fr.fr_id fr.fr_step
          | Some (e : Forensics.Reader.entry) ->
            if e.step <> fr.fr_step || e.ev <> "flow" then
              Alcotest.failf
                "%s: fact %s#%d@%d resolved to %s line at step %d" where
                fr.fr_template fr.fr_id fr.fr_step e.ev e.step)
        c.facts)
    chains

let test_provenance_property () =
  List.iter
    (fun name ->
      let sc = scenario name in
      let clean, _ = traced_run sc in
      check_provenance name clean;
      List.iter
        (fun seed ->
          let faulted, _ =
            traced_run ~fault:(Osim.Fault.seeded seed) sc
          in
          check_provenance (Fmt.str "%s seed %d" name seed) faulted)
        seeds)
    corpus_slice

(* ------------------------------------------------------------------ *)
(* profile reproduces the live --stats numbers                         *)

let test_profile_matches_stats () =
  let sc = scenario "pma" in
  let bytes, outcome = traced_run sc in
  let r =
    match outcome with
    | Ok r -> r
    | Error e -> Alcotest.failf "pma failed: %a" Hth.Error.pp e
  in
  let p = Forensics.Profile.of_trace (reader_of_string bytes) in
  (* taint.* counters are per-session (fresh taint space per run), so
     the trace embeds them like every other family — the offline
     profile must reproduce the live stats exactly *)
  Alcotest.(check (list (pair string int)))
    "embedded counters = live stats" r.Hth.Engine.stats p.counters;
  let live_syscalls =
    List.filter_map
      (fun (n, v) ->
        let prefix = "osim.syscalls." in
        let pl = String.length prefix in
        if String.length n > pl && String.sub n 0 pl = prefix then
          Some (String.sub n pl (String.length n - pl), v)
        else None)
      r.Hth.Engine.stats
  in
  Alcotest.(check (list (pair string int)))
    "syscall mix" live_syscalls (List.sort compare p.syscalls);
  Alcotest.(check (list (triple int int int)))
    "hot blocks" r.Hth.Engine.hot_blocks p.hot_blocks

(* ------------------------------------------------------------------ *)
(* diff                                                                *)

let test_diff () =
  let bytes = read_file "golden/pma.jsonl" in
  (match
     Forensics.Tdiff.first_divergence ~expected:bytes ~actual:bytes
   with
   | None -> ()
   | Some _ -> Alcotest.fail "identical traces reported divergent");
  let lines = String.split_on_char '\n' bytes in
  let corrupted =
    String.concat "\n"
      (List.mapi
         (fun i l ->
           if i = 3 then
             "{\"step\":3,\"ev\":\"syscall\",\"call\":\"SYS_evil\"}"
           else l)
         lines)
  in
  match
    Forensics.Tdiff.first_divergence ~expected:bytes ~actual:corrupted
  with
  | None -> Alcotest.fail "corrupted trace reported identical"
  | Some d ->
    Alcotest.(check int) "divergence line" 4 d.line;
    Alcotest.(check (option int)) "divergence step" (Some 3) d.step

(* ------------------------------------------------------------------ *)
(* query                                                               *)

let test_query () =
  let trace = reader_of_file "golden/pma.jsonl" in
  let count f = List.length (Forensics.Query.run trace f) in
  let all = Forensics.Query.any in
  Alcotest.(check int) "all-pass returns every line"
    (Forensics.Reader.length trace)
    (count all);
  Alcotest.(check int) "four warnings" 4
    (count { all with ev = Some "warning" });
  Alcotest.(check int) "no faults in a clean run" 0
    (count { all with ev = Some "fault" });
  Alcotest.(check bool) "resource substring finds the exfil pipe" true
    (count { all with resource = Some "inpipe" } > 0);
  Alcotest.(check int) "step range is inclusive" 3
    (count { all with step_min = Some 4; step_max = Some 6 });
  Alcotest.(check int) "pid filter drops pid-less lines"
    (count { all with pid = Some 1 })
    (count { all with pid = Some 1; step_min = Some 0 })

(* ------------------------------------------------------------------ *)
(* histogram percentiles: deterministic decimating reservoir           *)

let test_histogram_percentiles () =
  let feed name obs =
    let h = Obs.Histogram.make name in
    List.iter (Obs.Histogram.observe h) obs;
    h
  in
  let small = feed "test.hist.small" (List.init 100 float_of_int) in
  Alcotest.(check (float 0.)) "p50 of 0..99" 49.
    (Obs.Histogram.percentile small 50.);
  Alcotest.(check (float 0.)) "p95 of 0..99" 94.
    (Obs.Histogram.percentile small 95.);
  Alcotest.(check (float 0.)) "p99 of 0..99" 98.
    (Obs.Histogram.percentile small 99.);
  Alcotest.(check (float 0.)) "max of 0..99" 99.
    (Obs.Histogram.maximum small);
  (* past the reservoir capacity the decimation must stay a pure
     function of the observation sequence: two identical streams give
     identical percentiles, and nearest-rank stays within one stride
     of the exact answer *)
  let big = List.init 10_000 float_of_int in
  let a = feed "test.hist.big.a" big and b = feed "test.hist.big.b" big in
  List.iter
    (fun p ->
      let pa = Obs.Histogram.percentile a p in
      Alcotest.(check (float 0.))
        (Fmt.str "p%g deterministic across identical streams" p)
        pa
        (Obs.Histogram.percentile b p);
      let exact = p /. 100. *. 10_000. in
      Alcotest.(check bool)
        (Fmt.str "p%g within decimation error (got %g, exact %g)" p pa
           exact)
        true
        (Float.abs (pa -. exact) <= 64.))
    [ 50.; 95.; 99. ];
  Alcotest.(check int) "count tracks every observation" 10_000
    (Obs.Histogram.count a)

(* Spans read the monotonic wall clock.  A 50 ms sleep must read as
   such; process CPU time ([Sys.time]) reads ~0 for it. *)
let test_span_wall_clock () =
  let h = Obs.Histogram.make "test.span.sleep" in
  Obs.Span.time h (fun () -> Unix.sleepf 0.05);
  let s = Obs.Histogram.maximum h in
  Alcotest.(check bool)
    (Fmt.str "a 50 ms sleep reads at least 40 ms (got %.1f ms)" (s *. 1e3))
    true (s >= 0.040)

(* ------------------------------------------------------------------ *)
(* counter-name stability                                              *)

let test_counter_families () =
  (* Touch every runtime-registered family first: a clean run and a few
     faulted ones (fault injection registers the osim.faults.injected
     family). *)
  let sc = scenario "pma" in
  ignore (Hth.Engine.run_outcome (Hth.Engine.create ()) sc.sc_setup);
  List.iter
    (fun seed ->
      ignore
        (Hth.Engine.run_outcome (Hth.Engine.create ())
           ~fault:(Osim.Fault.seeded seed) sc.sc_setup))
    seeds;
  let actual = Obs.counter_families () in
  let expected =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (read_file "counter_families.expected"))
  in
  Alcotest.(check (list string))
    "counter-name surface matches test/counter_families.expected \
     (renaming a counter breaks trace consumers — update the list only \
     with the rename)"
    expected actual

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Evidence wire format: a name is one name                            *)

(* A guest writes hard-coded data to a file whose name imitates the end
   of one origin reference and a second, SOCKET-sourced one. *)
let forged_name = "x;source=SOCKET:evil:80<-BINARY:/bin/fake"

let forger =
  let open Asm in
  let u =
    create ~path:"/bin/forger" ~kind:Binary.Image.Executable
      ~base:Guest.Common.exe_base ()
  in
  asciz u "name" forged_name;
  asciz u "data" "hardcoded";
  space u "fd" 4;
  label u "_start";
  Guest.Runtime.sys_creat u ~path:(lbl "name");
  movl u (mlbl "fd") eax;
  Guest.Runtime.sys_write u ~fd:(mlbl "fd") ~buf:(lbl "data") ~len:(imm 9);
  Guest.Runtime.sys_close u ~fd:(mlbl "fd");
  Guest.Runtime.sys_exit u 0;
  hlt u;
  finalize u

let test_forged_origin () =
  let buf = Buffer.create 4096 in
  (match
     Hth.Engine.run_outcome (Hth.Engine.create ())
       ~trace:(Obs.Trace.buffer_target buf)
       (Hth.Engine.setup ~main:"/bin/forger" ~programs:[ forger ] ())
   with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "session failed: %s" (Hth.Error.to_string e));
  let origins =
    List.concat_map
      (fun (c : Forensics.Chain.t) ->
        List.map
          (fun (l : Forensics.Chain.origin_link) ->
            let o = l.origin in
            Fmt.str "%s %s:%s <- %s:%s" o.og_role o.og_type o.og_name
              o.og_origin_type o.og_origin_name)
          c.origins)
      (Forensics.Chain.explain (reader_of_string (Buffer.contents buf)))
  in
  Alcotest.(check (list string)) "the recorded origins, and no other"
    [ "source BINARY:/bin/forger <- UNKNOWN:";
      "target FILE:" ^ forged_name ^ " <- BINARY:/bin/forger" ]
    origins

(* Names drawn heavy in the characters the format separates on. *)
let name_gen =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_bound 6)
         (oneof
            [ map (String.make 1) char;
              oneofl [ "\\"; ";"; "<-"; "<"; "-"; ":"; "="; ","; "#"; "@" ];
              string_size ~gen:printable (int_bound 4) ])))

let evidence_gen =
  let open QCheck.Gen in
  let origin =
    let* role = oneofl [ "source"; "target"; "server"; "resource"; "trigger" ]
    and* otype = oneofl [ "FILE"; "SOCKET"; "BINARY" ]
    and* name = name_gen
    and* origin_type =
      oneofl [ "FILE"; "SOCKET"; "BINARY"; "USER_INPUT"; "UNKNOWN" ]
    and* origin_name = name_gen in
    return (Secpert.Evidence.origin ~role ~otype ~name ~origin_type ~origin_name)
  in
  let fact =
    let* fr_template = oneofl [ "data_transfer"; "transfer_source"; "exec" ]
    and* fr_id = nat
    and* fr_step = int_range (-1) 100_000 in
    return { Secpert.Evidence.fr_template; fr_id; fr_step }
  in
  let* facts = list_size (int_bound 4) fact
  and* origins = list_size (int_bound 4) origin in
  return { Secpert.Evidence.facts; origins }

let prop_evidence_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"evidence: render then parse is identity"
    (QCheck.make ~print:(Fmt.to_to_string Secpert.Evidence.pp) evidence_gen)
    (fun e ->
      Secpert.Evidence.parse_facts (Secpert.Evidence.facts_to_string e)
      = e.facts
      && Secpert.Evidence.parse_origins (Secpert.Evidence.origins_to_string e)
         = e.origins)

let suite =
  [ Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "jsonl rejects malformed" `Quick test_jsonl_rejects;
    Alcotest.test_case "explain: golden rendering" `Quick
      test_explain_golden_rendering;
    Alcotest.test_case "explain: chains resolve" `Quick
      test_explain_golden_structure;
    Alcotest.test_case "provenance property (corpus x seeds)" `Slow
      test_provenance_property;
    Alcotest.test_case "profile reproduces --stats" `Quick
      test_profile_matches_stats;
    Alcotest.test_case "diff finds first divergence" `Quick test_diff;
    Alcotest.test_case "query filters" `Quick test_query;
    Alcotest.test_case "histogram percentiles" `Quick
      test_histogram_percentiles;
    Alcotest.test_case "counter families stable" `Quick
      test_counter_families;
    Alcotest.test_case "span clock is wall time" `Quick test_span_wall_clock;
    Alcotest.test_case "evidence: a file name forges no origin" `Quick
      test_forged_origin;
    Test_props.to_alcotest_seeded prop_evidence_roundtrip ]
