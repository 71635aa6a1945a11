(* Tests for the flow-line codec and offline replay: a recorded JSONL
   trace decodes back into the Harrier events of the run, and
   re-judging those events reproduces the live warnings. *)

let check = Alcotest.(check bool)
let sp = Taint.Tagset.make_space ()
let check_int = Alcotest.(check int)

let find name =
  match Guest.Corpus.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "missing scenario %s" name

(* Run a scenario on a fresh engine with its trace captured. *)
let traced ?(policy = Secpert.System.Native) ?fault (sc : Guest.Scenario.t) =
  let buf = Buffer.create 4096 in
  let outcome =
    Hth.Engine.run_outcome
      (Hth.Engine.create ~policy ())
      ?fault ~trace:(Obs.Trace.buffer_target buf) sc.sc_setup
  in
  Buffer.contents buf, outcome

let traced_ok ?policy ?fault sc =
  match traced ?policy ?fault sc with
  | trace, Ok r -> trace, r
  | _, Error e ->
    Alcotest.failf "%s: %s" sc.sc_name (Hth.Error.to_string e)

let events_of trace =
  Result.bind (Forensics.Reader.of_string trace) Forensics.Reader.events

let decode trace =
  match events_of trace with
  | Ok events -> events
  | Error m -> Alcotest.fail m

(* An event's full encoding, its step included. *)
let encoding e =
  Fmt.str "%d %s"
    (Harrier.Events.meta_of e).step
    (Obs.json_object (Harrier.Events.to_fields e))

let check_events msg ~live ~decoded =
  Alcotest.(check (list string))
    msg (List.map encoding live) (List.map encoding decoded)

(* Every observable part of a warning, evidence included. *)
let warning_key (w : Secpert.Warning.t) =
  Fmt.str "%s|%s|%d|%d|%b|%d|%s|%s|%s"
    (Secpert.Severity.label w.severity)
    w.rule w.pid w.time w.rare w.mult w.message
    (Secpert.Evidence.facts_to_string w.evidence)
    (Secpert.Evidence.origins_to_string w.evidence)

let test_roundtrip_session () =
  let trace, r = traced_ok (find "pma") in
  check_events "events preserved" ~live:r.events ~decoded:(decode trace)

let test_roundtrip_binary_head () =
  (* heads carry raw executable bytes; the line carries them as hex *)
  let head = "MZ\x90\x00\x01\xFF\n\t\"quoted\"" in
  let e =
    Harrier.Events.Transfer
      { call = "SYS_write";
        data = (Taint.Tagset.singleton sp) (Taint.Source.Socket "h:1");
        head;
        sources = [ Taint.Source.Socket "h:1", Taint.Tagset.empty ];
        guard = [];
        target =
          { r_kind = Harrier.Events.R_file; r_name = "/t";
            r_origin = Taint.Tagset.empty };
        via_server = None; len = 10;
        meta = { pid = 1; time = 2; freq = 3; addr = 4; step = 0 } }
  in
  let buf = Buffer.create 256 in
  Obs.Trace.to_buffer buf;
  Fun.protect ~finally:Obs.Trace.disable (fun () ->
      Obs.Trace.emit "flow" (Harrier.Events.to_fields e));
  let line = Buffer.contents buf in
  check "line is ASCII" true
    (String.for_all (fun c -> Char.code c < 0x80) line);
  match decode line with
  | [ Harrier.Events.Transfer { head = h; _ } ] ->
    Alcotest.(check string) "binary head survives" head h
  | _ -> Alcotest.fail "wrong event shape"

let test_replay_matches_live () =
  List.iter
    (fun name ->
      let trace, r = traced_ok (find name) in
      let replayed = Secpert.System.replay (decode trace) in
      check_int
        (name ^ ": replay reproduces the warnings")
        (List.length r.warnings)
        (List.length replayed);
      check (name ^ ": same maximum severity") true
        (Secpert.Warning.max_severity replayed = r.max_severity))
    [ "grabem"; "pma"; "Hardcode"; "pico"; "stealth dropper" ]

let test_replay_with_different_policy () =
  (* offline re-judging: replay an old trace under a new configuration *)
  let trace, _ = traced_ok (find "ElmExploit") in
  let events = decode trace in
  let default_warnings = Secpert.System.replay events in
  let paranoid = Secpert.System.replay ~trust:Secpert.Trust.nothing events in
  let execve ws =
    List.exists (fun w -> w.Secpert.Warning.rule = "check_execve") ws
  in
  check "default trust misses the exec" false (execve default_warnings);
  check "re-judged without trust catches it" true (execve paranoid)

let flow fields = "{\"step\":0,\"ev\":\"flow\"," ^ fields ^ "}"

let test_bad_traces_rejected () =
  let meta = "\"pid\":1,\"tick\":2,\"freq\":3,\"addr\":4" in
  List.iter
    (fun bad ->
      match events_of bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad trace %S" bad)
    [ flow ("\"kind\":\"unknown\"," ^ meta);
      flow ("\"kind\":\"exec\"," ^ meta);
      flow ("\"kind\":\"clone\"," ^ meta ^ ",\"total\":1,\"recent\":2");
      flow ("\"kind\":\"access\"," ^ meta ^ ",\"call\":\"SYS_open\"");
      flow
        ("\"kind\":\"access\"," ^ meta
       ^ ",\"call\":\"SYS_open\",\"res_kind\":\"FILE\",\"res_name\":\"/a\",\
          \"origin\":\"{FILE(\\\"a\\\"}\"");
      flow
        ("\"kind\":\"alloc\",\"pid\":\"1\",\"tick\":2,\"freq\":3,\"addr\":4,\
          \"requested\":1,\"total\":2");
      flow
        ("\"kind\":\"transfer\"," ^ meta
       ^ ",\"call\":\"SYS_write\",\"target_kind\":\"FILE\",\
          \"target_name\":\"/t\",\"target_origin\":\"{}\",\"data\":\"{}\",\
          \"len\":1,\"head\":\"4g\",\"sources\":\"\",\"guard\":\"\"");
      "{\"step\":0,\"ev\":\"flow\"" ]

let test_empty_trace () =
  match events_of "" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "phantom events"
  | Error msg -> Alcotest.fail msg

(* Every corpus scenario under both policies and three fault settings:
   the run's own trace decodes to its live events, and re-judging them
   reproduces its warnings exactly. *)
let test_corpus_exact () =
  let runs = ref 0 in
  List.iter
    (fun (sc : Guest.Scenario.t) ->
      List.iter
        (fun policy ->
          List.iter
            (fun fault ->
              match traced ~policy ?fault sc with
              | _, Error _ -> ()
              | trace, Ok r ->
                incr runs;
                let decoded = decode trace in
                check_events (sc.sc_name ^ ": decoded = live") ~live:r.events
                  ~decoded;
                Alcotest.(check (list string))
                  (sc.sc_name ^ ": replayed = live warnings")
                  (List.map warning_key r.warnings)
                  (List.map warning_key
                     (Secpert.System.replay ~policy decoded)))
            [ None; Some (Osim.Fault.seeded 1); Some (Osim.Fault.seeded 7) ])
        [ Secpert.System.Native; Secpert.System.Clips ])
    Guest.Corpus.all;
  check_int "every run completes" (6 * List.length Guest.Corpus.all) !runs

let golden_flow_lines () =
  Sys.readdir "golden" |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
  |> List.concat_map (fun f ->
         In_channel.with_open_bin (Filename.concat "golden" f)
           In_channel.input_all
         |> String.split_on_char '\n'
         |> List.filter (fun l ->
                Astring.String.is_infix ~affix:"\"ev\":\"flow\"" l))

let test_goldens_ascii () =
  Sys.readdir "golden" |> Array.iter (fun f ->
      if Filename.check_suffix f ".jsonl" then
        let s =
          In_channel.with_open_bin (Filename.concat "golden" f)
            In_channel.input_all
        in
        check (f ^ " is ASCII") true
          (String.for_all (fun c -> Char.code c < 0x80) s))

(* Flip bytes in, truncate, and drop fields of every golden flow line:
   decoding answers [Ok] or [Error] and never raises. *)
let test_golden_fuzz () =
  let decode_line l =
    match Forensics.Jsonl.parse_line l with
    | Error _ -> ()
    | Ok fields -> ignore (Harrier.Events.of_fields sp fields)
  in
  let lines = golden_flow_lines () in
  check "goldens hold flow lines" true (lines <> []);
  let rng = Random.State.make [| 14 |] in
  List.iter
    (fun l ->
      (match Forensics.Jsonl.parse_line l with
       | Ok fields ->
         check "golden line decodes" true
           (Result.is_ok (Harrier.Events.of_fields sp fields));
         List.iter
           (fun (k, _) ->
             ignore
               (Harrier.Events.of_fields sp (List.remove_assoc k fields)))
           fields
       | Error m -> Alcotest.fail m);
      for i = 0 to String.length l - 1 do
        decode_line (String.sub l 0 i);
        let b = Bytes.of_string l in
        Bytes.set b i (Char.chr (Random.State.int rng 256));
        decode_line (Bytes.to_string b)
      done)
    lines

(* The JSON writer every trace line goes through, against the plain
   rendering it replaced: ints as [string_of_int] prints them, strings
   escaped one byte at a time.  Keys and strings draw every byte value,
   ints the whole range, [min_int] and [max_int] included. *)
let reference_json fields =
  let b = Buffer.create 64 in
  let str s =
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      str k;
      Buffer.add_char b ':';
      match v with
      | Obs.Int n -> Buffer.add_string b (string_of_int n)
      | Obs.Bool v -> Buffer.add_string b (string_of_bool v)
      | Obs.Str s -> str s)
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

let prop_json_writer =
  let open QCheck in
  let value =
    Gen.(
      oneof
        [ map (fun n -> Obs.Int n) int;
          map (fun n -> Obs.Int n) (int_range (-1000) 100_000);
          oneofl [ Obs.Int min_int; Obs.Int max_int; Obs.Int 0 ];
          map (fun v -> Obs.Bool v) bool;
          map (fun s -> Obs.Str s) (string_size ~gen:char (int_bound 40)) ])
  in
  Test.make ~count:500 ~name:"json writer: output equals the per-byte reference"
    (make
       ~print:(fun fields -> reference_json fields)
       Gen.(list_size (int_bound 6)
              (pair (string_size ~gen:char (int_bound 8)) value)))
    (fun fields -> String.equal (Obs.json_object fields) (reference_json fields))

let suite =
  [ Alcotest.test_case "session trace round trip" `Quick
      test_roundtrip_session;
    Alcotest.test_case "binary head round trip" `Quick
      test_roundtrip_binary_head;
    Alcotest.test_case "replay matches live warnings" `Quick
      test_replay_matches_live;
    Alcotest.test_case "offline re-judging with new policy" `Quick
      test_replay_with_different_policy;
    Alcotest.test_case "bad traces rejected" `Quick
      test_bad_traces_rejected;
    Alcotest.test_case "empty trace" `Quick test_empty_trace;
    Alcotest.test_case "corpus x policies x faults: decode and replay exact"
      `Quick test_corpus_exact;
    Alcotest.test_case "golden traces are ASCII" `Quick test_goldens_ascii;
    Alcotest.test_case "golden flow lines: mutations never raise" `Quick
      test_golden_fuzz;
    Test_props.to_alcotest_seeded prop_json_writer ]
