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
let capture ?chunk_bytes ?(engine = Hth.Engine.create ())
    (sc : Guest.Scenario.t) =
  let buf = Buffer.create 4096 in
  let w = Store.Segment.Writer.create ?chunk_bytes () in
  let trace = Store.Segment.Writer.target ~tee:buf w in
  (match Hth.Engine.run_outcome engine ~trace sc.sc_setup with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "%s: session failed: %s" sc.sc_name
      (Hth.Error.to_string e));
  (Buffer.contents buf, Store.Segment.Writer.seal w)

let count_lines s =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s

(* ------------------------------------------------------------------ *)
(* deflate                                                             *)

let deflate_cases =
  [ "empty", "";
    "a", "a";
    "hello, world", "hello, world";
    "x*100000", String.make 100_000 'x';
    ( "flow lines",
      String.concat ""
        (List.init 4_000 (fun i ->
             Printf.sprintf "{\"step\":%d,\"ev\":\"flow\"}\n" i)) );
    "bytes 0-255", String.init 256 Char.chr;
    "7919 walk", String.init 70_000 (fun i -> Char.chr (i * 7919 mod 256)) ]

let test_deflate_units () =
  List.iter
    (fun (_, s) ->
      match Store.Deflate.decompress (Store.Deflate.compress s) with
      | Ok s' ->
        Alcotest.(check int)
          (Printf.sprintf "round-trip length (input %d bytes)"
             (String.length s))
          (String.length s) (String.length s');
        Alcotest.(check bool) "round-trip bytes" true (String.equal s s')
      | Error m -> Alcotest.failf "decompress failed: %s" m)
    deflate_cases;
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

(* The encoder's bytes, pinned: MD5 and length of [Deflate.compress]'s
   output on every golden trace, on their concatenation (past the 32 KiB
   window) and on [deflate_cases], as the encoder that allocated fresh
   match tables per call produced them.  Segments written before and
   after any encoder change must stay byte-identical.  A regenerated
   golden is a new input: record its pin with an unchanged encoder. *)
let deflate_pins =
  [ "ElmExploit.jsonl", 1340, "4312d3620e2c422af2516ba4323b8cb5";
    "column.jsonl", 1129, "c494737bfaceb33f4e3cb6e2b8aea3fa";
    "grabem.jsonl", 1511, "e2bdae96313255142a54b3d006494553";
    "logic_bomb_defused.jsonl", 786, "5a6e53adb4a0e6fc4de37b1ec8fb9159";
    "logic_bomb_idle.jsonl", 881, "d20932ba4812ca084a1543fd09813522";
    "logic_bomb_triggered.jsonl", 1440, "01cd57be61524835f9b72c8f3cedbbad";
    "ls.jsonl", 880, "fe99c3a0d996a947b35216a25ca4e4de";
    "nlspath.jsonl", 755, "0b2996c5fc12d6e2bd1470ee0de4adba";
    "pma.jsonl", 1968, "ad2c5f14f6d3a0b48991d7d7faa30e30";
    "procex.jsonl", 1440, "ffc261917ee7c47d7716ce347da7e636";
    "sleeper_daemon_disarmed.jsonl", 886, "5dbc264138873018611ba5e6b7eab393";
    "sleeper_daemon_idle.jsonl", 932, "16498790844c11d11c66679ce0ad2aaa";
    "sleeper_daemon_triggered.jsonl", 1681, "a2268f312f0de42d0684be17ebaad5d4";
    "superforker.jsonl", 3360, "570cbb3a9aeb0852d66fc2ada4d41e7c";
    "update_client_idle.jsonl", 1111, "79597828989f01e3e78c3328a3e81ab3";
    "update_client_rejected.jsonl", 1121, "4a7a66c9485bdaffc3f53a4e48926927";
    "update_client_triggered.jsonl", 1951, "a2fbf56c79a508a63b23d9615f5654ec";
    "vixie_crontab.jsonl", 1202, "0aaad336279f6faa4c20a21e9d8027b2";
    "worm_pair_idle.jsonl", 881, "7f963749bff1837bc61e21dfdd11a424";
    "worm_pair_recalled.jsonl", 889, "6cf9cc4f62735a26a010033de54227f0";
    "worm_pair_triggered.jsonl", 1454, "8dc59cad81c2214c15bc1ee1794177b0";
    "all goldens", 13788, "071f4de135e86f872312d690cbdf83a3";
    "empty", 2, "598f4fe64aefab8f00bcbea4c9239abf";
    "a", 3, "e266db42a8cd74035cfd93adeabf41e3";
    "hello, world", 14, "2f8d48710d6e4229b032397b2492f0c2";
    "x*100000", 634, "7dc7e6d5325a21edfc30201966035b3d";
    "flow lines", 15015, "06c293832812167468b72355c7cc0517";
    "bytes 0-255", 272, "e01bb3120b18a254248b9c013c8da37e";
    "7919 walk", 916, "7e65cf29d75536b4eeba1764670786c9" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let golden_files () =
  Sys.readdir "golden" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
  |> List.sort compare

(* every golden trace, concatenated in name order: ~115 KB of real
   trace text *)
let golden_text =
  lazy
    (String.concat ""
       (List.map (fun f -> read_file (Filename.concat "golden" f))
          (golden_files ())))

let test_deflate_pinned () =
  let inputs =
    List.map (fun f -> f, read_file (Filename.concat "golden" f))
      (golden_files ())
    @ ("all goldens", Lazy.force golden_text) :: deflate_cases
  in
  List.iter
    (fun (name, input) ->
      match List.find_opt (fun (n, _, _) -> n = name) deflate_pins with
      | None -> Alcotest.failf "%s: no deflate pin recorded" name
      | Some (_, len, digest) ->
        let z = Store.Deflate.compress input in
        Alcotest.(check (pair int string))
          (name ^ ": compressed length and MD5")
          (len, digest)
          (String.length z, Digest.to_hex (Digest.string z)))
    inputs

(* Interleaved calls of every size from empty to 70 KiB: whatever the
   encoder keeps between calls, each output must equal the output of a
   first call (a new domain's) and round-trip.  An input is drawn as
   (kind, length, seed): a slice of real trace text, a run over a few
   distinct bytes (long chains and matches), or arbitrary bytes. *)
let deflate_input (kind, len, seed) =
  let rng = Random.State.make [| seed |] in
  match kind with
  | 0 ->
    let text = Lazy.force golden_text in
    let len = min len (String.length text) in
    String.sub text (Random.State.int rng (String.length text - len + 1)) len
  | 1 ->
    let k = 1 + Random.State.int rng 4 in
    String.init len (fun _ -> Char.chr (97 + Random.State.int rng k))
  | _ -> String.init len (fun _ -> Char.chr (Random.State.int rng 256))

let prop_deflate_interleaved =
  Test.make ~count:25 ~long_factor:10
    ~name:"store: deflate output independent of earlier calls"
    (make
       ~print:Print.(list (triple int int int))
       Gen.(
         list_size (int_range 1 6)
           (triple (int_bound 2) (int_bound (70 * 1024)) (int_bound 1_000_000))))
    (fun recipes ->
      List.for_all
        (fun recipe ->
          let s = deflate_input recipe in
          let z = Store.Deflate.compress s in
          let first =
            Domain.join (Domain.spawn (fun () -> Store.Deflate.compress s))
          in
          String.equal z first && Store.Deflate.decompress z = Ok s)
        recipes)

(* The encoder against its reference model ([Deflate_model], the
   plain form of the same parse and code): byte-identical output on
   every input.  Inputs are drawn as (kind, length, seed): slices of
   real trace text, runs over a few distinct bytes (chains past the
   64-step budget), arbitrary bytes, copies of one 258-byte block (the
   longest match, then a mismatch) and a block repeated at a distance
   within two bytes of the 32 KiB window edge. *)
let model_input (kind, len, seed) =
  let rng = Random.State.make [| seed |] in
  let bytes n = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
  match kind with
  | 0 | 1 | 2 -> deflate_input (kind, len, seed)
  | 3 ->
    let block = bytes 258 in
    let b = Buffer.create (len + 259) in
    while Buffer.length b < len do
      Buffer.add_string b block;
      Buffer.add_char b (Char.chr (Random.State.int rng 256))
    done;
    Buffer.sub b 0 len
  | _ ->
    let block = bytes (3 + Random.State.int rng 300) in
    let dist = Deflate_model.win_size + Random.State.int rng 5 - 2 in
    let tail = min len (70 * 1024 - dist - String.length block) in
    block ^ bytes (dist - String.length block) ^ block ^ bytes (max 0 tail)

let prop_deflate_model =
  Test.make ~count:40 ~long_factor:10
    ~name:"store: deflate output equals the reference encoder"
    (make
       ~print:Print.(triple int int int)
       Gen.(triple (int_bound 4) (int_bound (70 * 1024)) (int_bound 1_000_000)))
    (fun recipe ->
      let s = model_input recipe in
      String.equal (Store.Deflate.compress s) (Deflate_model.compress s))

(* The refill, which 2 GiB of input on one domain would bring: the
   first input takes the table entries up to the last 32-bit value,
   the second refills the tables, the third follows the refill; each
   output equals the model's. *)
let test_deflate_refill () =
  let inputs =
    [ deflate_input (0, 40_000, 1); deflate_input (1, 30_000, 2);
      deflate_input (0, 20_000, 3) ]
  in
  Domain.join
  @@ Domain.spawn (fun () ->
         Store.Deflate.set_headroom (String.length (List.hd inputs));
         List.iteri
           (fun k s ->
             Alcotest.(check bool)
               (Printf.sprintf "input %d equals the model" k)
               true
               (String.equal (Store.Deflate.compress s)
                  (Deflate_model.compress s)))
           inputs)

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

(* The writer's bytes, pinned: length and MD5 of the sealed segment of
   every golden scenario, and of pma and superforker under the CLIPS
   policy, written through [Writer.target] at the default chunk size by
   the writer that re-parsed rendered lines for its index.  A writer or
   encoder change must leave every segment byte-identical; a trace
   change is a new input, whose pins are recorded with an unchanged
   writer. *)
let segment_pins =
  [ "ElmExploit", 1963, "486d1bcf07b3f465669c6f62dceed621";
    "nlspath", 1239, "1ba977ec83d5407eeb861d9058a40a46";
    "procex", 2127, "de66691a6264e57b7622d2cadc90fea6";
    "grabem", 2122, "23c9cc74db066c7f8f28002903424dbb";
    "vixie crontab", 1805, "127f70376a24849cd13906ab2e35396b";
    "pma", 2719, "223adde74219a61b3184a247117bcac9";
    "superforker", 4283, "98a2909e6ac0ffea47d91a56d18b054f";
    "ls", 1409, "91a44e2ba35ee74f30941f4c100a52b6";
    "column", 1694, "bdfd84c7dc9a58d8a9d0a6c106bbe0c2";
    "sleeper daemon idle", 1491, "a83896b6bea2ebe3688da329315ec1c3";
    "sleeper daemon triggered", 2460, "02d2a0eeacd7240936ead85425f72ba4";
    "sleeper daemon disarmed", 1441, "9c7b637ef394675a50988cd47e22fe74";
    "logic bomb idle", 1411, "a1158d0643ea588ba39738c385f5bd62";
    "logic bomb triggered", 2125, "e86155e9c7aeeda284318a54f065162a";
    "logic bomb defused", 1270, "841edbb436f5b5da799f7f14ee9bb77e";
    "worm pair idle", 1443, "205dd34a50ca6bf0b0acf951b44d88f8";
    "worm pair triggered", 2136, "52f5d8a219064219b55ba7d289512122";
    "worm pair recalled", 1449, "cf249618e1409b179fb57f972cb56289";
    "update client idle", 1728, "564df6c8c7438a3799defabe502c6943";
    "update client triggered", 2761, "7a9006ca00fb136b2ca70f90d1a35b6e";
    "update client rejected", 1740, "a10c193ac3c0af9bfc5199e6d8cba9e9";
    "pma (clips)", 2780, "a303b064f041381c5f96f513c53b6470";
    "superforker (clips)", 4111, "f7871b1a867ed0577591c43275271de5" ]

let test_segment_pinned () =
  let native = Hth.Engine.create () in
  let clips = Hth.Engine.create ~policy:Secpert.System.Clips () in
  let cases =
    List.map (fun name -> name, name, native) Test_golden.golden_scenarios
    @ [ "pma (clips)", "pma", clips;
        "superforker (clips)", "superforker", clips ]
  in
  List.iter
    (fun (label, name, engine) ->
      let w = Store.Segment.Writer.create () in
      (match
         Hth.Engine.run_outcome engine ~trace:(Store.Segment.Writer.target w)
           (find name).sc_setup
       with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "%s: session failed: %s" label (Hth.Error.to_string e));
      let bytes = (Store.Segment.Writer.seal w).s_bytes in
      let got = (String.length bytes, Digest.to_hex (Digest.string bytes)) in
      match List.find_opt (fun (l, _, _) -> l = label) segment_pins with
      | None ->
        Alcotest.failf "%s: no segment pin recorded (got %d, %s)" label
          (fst got) (snd got)
      | Some (_, len, digest) ->
        Alcotest.(check (pair int string))
          (label ^ ": segment length and MD5") (len, digest) got)
    cases

(* The index the writer must build, from the raw trace and the sealed
   bytes alone.  The chunk directory lists the segment's data frames in
   file order, each with its raw offset, first step and line count.
   The postings follow from parsing every line with [Forensics.Jsonl]
   (a line's step is its ordinal): a [warning] line gives its rule and
   severity ([""] when absent); a [flow] line posts its step under each
   of its [res_name], [target_name], [server_name] and [call] strings,
   once per name; a [counter] line with a string [name] and an int
   [value], and a [hot_block] line with int [pid], [addr] and [count],
   give one entry each. *)
let reference_index raw (sealed : Store.Segment.sealed) =
  let bytes = sealed.s_bytes in
  let rec frames pos raw_off step acc =
    if pos = String.length bytes then List.rev acc
    else
      match Store.Frame.read bytes ~pos with
      | Error e -> Alcotest.failf "reference: bad frame at %d: %s" pos e
      | Ok (f, next) -> (
        match f.Store.Frame.f_kind, Store.Frame.payload f with
        | Store.Frame.Data, Ok chunk ->
          let c_lines = count_lines chunk in
          frames next (raw_off + String.length chunk) (step + c_lines)
            ({ Store.Segment.c_pos = pos; c_raw_off = raw_off;
               c_first_step = step; c_lines }
             :: acc)
        | Store.Frame.Data, Error e ->
          Alcotest.failf "reference: data frame at %d: %s" pos e
        | (Store.Frame.Index | Store.Frame.End), _ ->
          frames next raw_off step acc)
  in
  let warnings = ref [] and blocks = ref [] and counters = ref [] in
  let names = Hashtbl.create 32 in
  String.split_on_char '\n' raw
  |> List.filter (fun l -> l <> "")
  |> List.iteri (fun step line ->
         match Forensics.Jsonl.parse_line line with
         | Error e -> Alcotest.failf "reference: bad trace line %S: %s" line e
         | Ok fields -> (
           let str k =
             match List.assoc_opt k fields with
             | Some (Obs.Str v) -> Some v
             | _ -> None
           and int k =
             match List.assoc_opt k fields with
             | Some (Obs.Int v) -> Some v
             | _ -> None
           in
           match str "ev" with
           | Some "warning" ->
             warnings :=
               { Store.Segment.w_step = step;
                 w_rule = Option.value ~default:"" (str "rule");
                 w_severity = Option.value ~default:"" (str "severity") }
               :: !warnings
           | Some "flow" ->
             List.iter
               (fun k ->
                 match str k with
                 | None -> ()
                 | Some name -> (
                   match Hashtbl.find_opt names name with
                   | Some (last :: _) when last = step -> ()
                   | Some steps -> Hashtbl.replace names name (step :: steps)
                   | None -> Hashtbl.replace names name [ step ]))
               [ "res_name"; "target_name"; "server_name"; "call" ]
           | Some "counter" -> (
             match str "name", int "value" with
             | Some n, Some v -> counters := (n, v) :: !counters
             | _ -> ())
           | Some "hot_block" -> (
             match int "pid", int "addr", int "count" with
             | Some p, Some a, Some c -> blocks := (p, a, c) :: !blocks
             | _ -> ())
           | _ -> ()));
  { Store.Segment.ix_chunks = frames (String.length Store.Frame.magic) 0 0 [];
    ix_warnings = List.rev !warnings;
    ix_names =
      Hashtbl.fold (fun name steps acc -> (name, List.rev steps) :: acc)
        names []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    ix_blocks = List.rev !blocks;
    ix_counters = List.rev !counters }

(* Every corpus scenario under both policies: the sealed index is the
   reference index, part for part. *)
let test_index_matches_trace () =
  List.iter
    (fun (policy, engine) ->
      List.iter
        (fun (sc : Guest.Scenario.t) ->
          let raw, sealed = capture ~engine sc in
          let ix = sealed.Store.Segment.s_index
          and want = reference_index raw sealed in
          let part what same =
            Alcotest.(check bool)
              (Printf.sprintf "%s (%s): %s" sc.sc_name policy what)
              true same
          in
          part "chunk directory" (ix.ix_chunks = want.ix_chunks);
          part "warnings" (ix.ix_warnings = want.ix_warnings);
          part "name postings" (ix.ix_names = want.ix_names);
          part "hot blocks" (ix.ix_blocks = want.ix_blocks);
          part "counters" (ix.ix_counters = want.ix_counters))
        Guest.Corpus.all)
    [ "native", Hth.Engine.create ~keep_events:false ();
      "clips",
      Hth.Engine.create ~keep_events:false ~policy:Secpert.System.Clips () ]

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
    (is_load_failure (Store.Segment.load ~path:"trail" (bytes ^ "x")));
  (* well-formed frames whose end frame claims a petabyte: the claim is
     checked, never allocated *)
  let forged =
    let b = Buffer.create 64 in
    Buffer.add_string b Store.Frame.magic;
    Store.Frame.add b ~kind:Store.Frame.Index "";
    Store.Frame.add b ~kind:Store.Frame.End
      (Printf.sprintf "{\"seg\":\"end\",\"steps\":0,\"raw_bytes\":%d}\n"
         (1 lsl 50));
    Buffer.contents b
  in
  Alcotest.(check bool) "an end frame's size claim is a Load_failure" true
    (is_load_failure (Store.Segment.load ~path:"forged" forged))

(* ------------------------------------------------------------------ *)
(* index consistency under arbitrary line-aligned chunkings            *)

(* The sink only ever hands the writer whole lines, but chunk sizes
   vary with the threshold and flush timing.  Whatever the chunking,
   the reconstructed bytes and the semantic index (warnings, names,
   blocks, counters) must not change; only ix_chunks — the physical
   layout — may, and even it must tile the trace exactly.  Each case
   runs a real session through [Writer.target] at a drawn [chunk_bytes]
   (one line per chunk at the low end, one chunk at the high end). *)
let prop_index_chunking_invariant =
  let scenarios = [ "pma"; "sleeper daemon triggered"; "superforker" ] in
  let references =
    List.map (fun name -> name, capture (find name)) scenarios
  in
  Test.make ~count:60
    ~name:"store: index invariant under line-aligned re-chunking"
    (make
       ~print:Print.(pair string int)
       Gen.(
         pair (oneofl scenarios)
           (oneof [ int_range 1 300; int_range 1 40_000 ])))
    (fun (name, chunk_bytes) ->
      let raw, reference = List.assoc name references in
      let _, sealed = capture ~chunk_bytes (find name) in
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
        (* and every chunk but the last holds at least [chunk_bytes] *)
        let rec sizes_ok = function
          | (a : Store.Segment.chunk) :: (b :: _ as tl) ->
            b.c_raw_off - a.c_raw_off >= chunk_bytes && sizes_ok tl
          | [] | [ _ ] -> true
        in
        let chunks = sealed.Store.Segment.s_index.Store.Segment.ix_chunks in
        steps_ok 0 chunks && offsets_ok chunks && sizes_ok chunks
      in
      reconstructs && chunks_tile
      && ix.Store.Segment.ix_warnings = ref_ix.Store.Segment.ix_warnings
      && ix.Store.Segment.ix_names = ref_ix.Store.Segment.ix_names
      && ix.Store.Segment.ix_blocks = ref_ix.Store.Segment.ix_blocks
      && ix.Store.Segment.ix_counters = ref_ix.Store.Segment.ix_counters)

(* ------------------------------------------------------------------ *)
(* warehouse determinism across worker counts                          *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dirs_made = ref 0

(* [with_dir prefix f] is [f d] for a fresh path [d] under the temp
   directory (not created: the store creates it), and [d] is removed
   with everything in it on every exit path. *)
let with_dir prefix f =
  incr dirs_made;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !dirs_made)
  in
  rm_rf d;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* the manifest entry `hth_run` writes for a corpus run *)
let record wh (sc : Guest.Scenario.t) result sealed =
  Store.Warehouse.record wh ~run:sc.sc_name ~scenario:sc.sc_name
    ~policy:"native" ~expected:(Guest.Scenario.expected_label sc.sc_expected)
    ~matches:(Guest.Scenario.matches sc.sc_expected) result sealed

let open_store dir =
  match Store.Warehouse.open_ dir with
  | Ok wh -> wh
  | Error e -> Alcotest.failf "open_ %s: %s" dir (Hth.Error.to_string e)

let load_store dir =
  match Store.Warehouse.load dir with
  | Ok v -> v
  | Error e -> Alcotest.failf "load %s: %s" dir (Hth.Error.to_string e)

(* Build a warehouse from the 12-scenario corpus on a [jobs]-worker
   fleet: segments sealed on the workers, appended in submission order
   by the coordinator — the same wiring `hth_run batch --store` uses. *)
let build_store ~jobs dir =
  let engine = Hth.Engine.create ~keep_events:false () in
  let fleet = Fleet.Supervisor.create ~jobs [ "default", engine ] in
  let outcomes =
    Fleet.Supervisor.run_all fleet
      (List.map
         (fun name ->
           Fleet.Executor.job ~trace:true ~store:true (find name).sc_setup)
         corpus)
  in
  Fleet.Supervisor.shutdown fleet;
  let wh = open_store dir in
  List.iter2
    (fun name (o : Fleet.Executor.outcome) ->
      let sealed =
        match o.o_segment with
        | Some s -> s
        | None -> Alcotest.failf "%s: no segment in outcome" name
      in
      ignore (record wh (find name) o.o_result sealed))
    corpus outcomes;
  Store.Warehouse.close wh;
  List.map
    (fun (o : Fleet.Executor.outcome) -> Option.get o.o_trace)
    outcomes

let test_store_determinism () =
  with_dir "hth-store-j1" @@ fun d1 ->
  with_dir "hth-store-j2" @@ fun d2 ->
  let traces1 = build_store ~jobs:1 d1 in
  let traces2 = build_store ~jobs:2 d2 in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: trace bytes identical across jobs"
           (List.nth corpus i))
        true (String.equal a b))
    (List.combine traces1 traces2);
  List.iter
    (fun file ->
      Alcotest.(check bool) (file ^ " byte-identical") true
        (String.equal
           (read_file (Filename.concat d1 file))
           (read_file (Filename.concat d2 file))))
    [ "MANIFEST.jsonl"; "segments.pack" ];
  Alcotest.(check (list string)) "the store holds the manifest and the pack"
    [ "MANIFEST.jsonl"; "segments.pack" ]
    (List.sort compare (Array.to_list (Sys.readdir d1)));
  let view = load_store d1 in
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

(* ------------------------------------------------------------------ *)
(* the pack: durability, reopening, locators                           *)

let append_run wh name =
  let sc = find name in
  let raw, sealed = capture sc in
  let e = record wh sc (Ok (Guest.Scenario.run sc)) sealed in
  (e.e_run, raw, sealed)

(* every run loads back byte-exact, by trace and by index *)
let check_runs dir runs =
  let view = load_store dir in
  Alcotest.(check (list string)) "manifest runs" (List.map (fun (r, _, _) -> r) runs)
    (List.map (fun (e : Store.Manifest.entry) -> e.e_run) view.v_entries);
  List.iter
    (fun (run, raw, (sealed : Store.Segment.sealed)) ->
      let e = Option.get (Store.Warehouse.find view run) in
      (match Store.Warehouse.raw_trace view e with
      | Ok got ->
        Alcotest.(check bool) (run ^ ": trace byte-exact") true
          (String.equal raw got)
      | Error err ->
        Alcotest.failf "%s: raw_trace: %s" run (Hth.Error.to_string err));
      match Store.Warehouse.read_index view e with
      | Ok ix ->
        Alcotest.(check bool) (run ^ ": index") true (ix = sealed.s_index)
      | Error err ->
        Alcotest.failf "%s: read_index: %s" run (Hth.Error.to_string err))
    runs

let append_to_pack dir bytes =
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644
    (Filename.concat dir "segments.pack")
    (fun oc -> output_string oc bytes)

(* A writer killed between flushing a run's bytes and writing its
   manifest line leaves an unlocated tail, whole or cut short.  Every
   published run still loads, and the next append lands past the tail. *)
let test_pack_unpublished_tail () =
  List.iter
    (fun cut ->
      with_dir "hth-store-tail" @@ fun dir ->
      let wh = open_store dir in
      let published = List.map (append_run wh) [ "pma"; "ls" ] in
      Store.Warehouse.close wh;
      let _, orphan = capture (find "column") in
      let bytes = orphan.Store.Segment.s_bytes in
      append_to_pack dir (String.sub bytes 0 (cut (String.length bytes)));
      check_runs dir published;
      let wh = open_store dir in
      let next = append_run wh "grabem" in
      Store.Warehouse.close wh;
      check_runs dir (published @ [ next ]))
    [ Fun.id; (fun n -> n / 2); (fun _ -> 3) ]

(* Reopening a non-empty store (a second `hth_run batch --store` into
   the same directory) appends after what is there: an append-mode
   channel's position starts at 0, so offsets must come from the pack's
   size. *)
let test_pack_reopen () =
  with_dir "hth-store-reopen" @@ fun dir ->
  let runs =
    List.concat_map
      (fun names ->
        let wh = open_store dir in
        let runs = List.map (append_run wh) names in
        Store.Warehouse.close wh;
        runs)
      [ [ "pma"; "ls" ]; [ "column" ]; [ "pma"; "grabem" ] ]
  in
  Alcotest.(check (list string)) "run ids uniquified across handles"
    [ "pma"; "ls"; "column"; "pma~2"; "grabem" ]
    (List.map (fun (r, _, _) -> r) runs);
  check_runs dir runs

let write_file path bytes =
  Out_channel.with_open_bin path (fun oc -> output_string oc bytes)

(* The pre-pack layout (one DIR/segments/<run>.seg per run) is not
   read: its entries are typed failures even with the file present. *)
let test_old_layout_rejected () =
  with_dir "hth-store-old" @@ fun dir ->
  let wh = open_store dir in
  let run, _, sealed = append_run wh "pma" in
  Store.Warehouse.close wh;
  let e = Option.get (Store.Warehouse.find (load_store dir) run) in
  Sys.mkdir (Filename.concat dir "segments") 0o755;
  write_file (Filename.concat dir "segments/pma.seg") sealed.s_bytes;
  write_file
    (Filename.concat dir "MANIFEST.jsonl")
    (Store.Manifest.render { e with e_segment = "segments/pma.seg" });
  let view = load_store dir in
  let e = List.hd view.v_entries in
  Alcotest.(check bool) "raw_trace" true
    (is_load_failure (Store.Warehouse.raw_trace view e));
  Alcotest.(check bool) "read_index" true
    (is_load_failure (Store.Warehouse.read_index view e));
  Alcotest.(check bool) "fleet query" true
    (is_load_failure
       (Store.Fleet_query.query view
          { Store.Fleet_query.no_filter with q_severity = Some "HIGH" }));
  Alcotest.(check bool) "fleet profile" true
    (is_load_failure (Store.Fleet_query.profile view));
  Alcotest.(check bool) "fleet diff" true
    (is_load_failure (Store.Fleet_query.diff view ~run))

(* ------------------------------------------------------------------ *)
(* fuzz: manifest, locators and pack bytes                             *)

(* The store every fuzz case starts from: three runs' manifest lines
   and pack. *)
let fuzz_base =
  lazy
    (with_dir "hth-store-fuzz" @@ fun dir ->
     let wh = open_store dir in
     List.iter (fun n -> ignore (append_run wh n)) [ "pma"; "ls"; "column" ];
     Store.Warehouse.close wh;
     ( (load_store dir).v_entries,
       read_file (Filename.concat dir "segments.pack") ))

type mutation =
  | Locator of int * string  (** entry, new [segment] field *)
  | Length of int * int  (** entry, new [framed_bytes] *)
  | Pack_flip of int * int  (** position, xor mask *)
  | Pack_cut of int  (** new length *)
  | Manifest_flip of int * int
  | Manifest_cut of int

let show_mutation = function
  | Locator (i, l) -> Printf.sprintf "Locator (%d, %S)" i l
  | Length (i, n) -> Printf.sprintf "Length (%d, %d)" i n
  | Pack_flip (p, m) -> Printf.sprintf "Pack_flip (%d, %d)" p m
  | Pack_cut n -> Printf.sprintf "Pack_cut %d" n
  | Manifest_flip (p, m) -> Printf.sprintf "Manifest_flip (%d, %d)" p m
  | Manifest_cut n -> Printf.sprintf "Manifest_cut %d" n

let mutation_gen =
  let open Gen in
  let pack = "segments.pack#" in
  let number =
    oneof
      [ map string_of_int int; map string_of_int (int_bound 40_000);
        map string_of_int (int_range (-5) 5);
        return (string_of_int max_int); return (string_of_int min_int);
        (* past any int *)
        string_size ~gen:(char_range '0' '9') (int_range 16 30);
        oneofl [ ""; "+1"; "0x10"; "1_0"; " 1"; "1 "; "-0"; "1e3" ] ]
  in
  let locator =
    oneof
      [ map (fun n -> pack ^ n) number;
        string_size ~gen:char (int_bound 24);
        map (fun r -> "segments/" ^ r ^ ".seg") (oneofl [ "pma"; "ls" ]);
        oneofl [ ""; pack; "segments.pack"; "/etc/passwd#0"; "../" ^ pack ^ "0";
                 "SEGMENTS.PACK#0"; pack ^ "0#0" ] ]
  in
  let length =
    oneof
      [ int; int_range (-3) 3; int_bound 40_000; oneofl [ max_int; min_int ] ]
  in
  frequency
    [ 3, map2 (fun i l -> Locator (i, l)) (int_bound 2) locator;
      2, map2 (fun i n -> Length (i, n)) (int_bound 2) length;
      2, map2 (fun p m -> Pack_flip (p, m)) nat (int_range 1 255);
      1, map (fun n -> Pack_cut n) nat;
      1, map2 (fun p m -> Manifest_flip (p, m)) nat (int_range 1 255);
      1, map (fun n -> Manifest_cut n) nat ]

let flip s pos mask =
  if s = "" then s
  else
    let pos = pos mod String.length s in
    String.mapi
      (fun i c -> if i = pos then Char.chr (Char.code c lxor mask) else c)
      s

let cut s n = String.sub s 0 (n mod (String.length s + 1))

(* Apply [muts] to the base store, write it to a directory of its own
   and read it back through every read surface: each answer is a
   success or a typed Load_failure, and nothing raises. *)

let prop_store_fuzz =
  Test.make ~count:200 ~long_factor:10
    ~name:"store: fuzzed manifest, locators and pack fail typed"
    (make
       ~print:(fun l -> String.concat "; " (List.map show_mutation l))
       Gen.(list_size (int_range 1 4) mutation_gen))
    (fun muts ->
      let entries, pack = Lazy.force fuzz_base in
      let entries =
        List.fold_left
          (fun entries m ->
            List.mapi
              (fun i (e : Store.Manifest.entry) ->
                match m with
                | Locator (j, l) when i = j -> { e with e_segment = l }
                | Length (j, n) when i = j -> { e with e_framed_bytes = n }
                | _ -> e)
              entries)
          entries muts
      in
      let manifest, pack =
        List.fold_left
          (fun (manifest, pack) -> function
            | Pack_flip (p, m) -> (manifest, flip pack p m)
            | Pack_cut n -> (manifest, cut pack n)
            | Manifest_flip (p, m) -> (flip manifest p m, pack)
            | Manifest_cut n -> (cut manifest n, pack)
            | Locator _ | Length _ -> (manifest, pack))
          (String.concat "" (List.map Store.Manifest.render entries), pack)
          muts
      in
      with_dir "hth-store-fuzzed" @@ fun dir ->
      Sys.mkdir dir 0o755;
      write_file (Filename.concat dir "MANIFEST.jsonl") manifest;
      write_file (Filename.concat dir "segments.pack") pack;
      let typed = function
        | Ok _ | Error (Hth.Error.Load_failure _) -> true
        | Error _ -> false
      in
      match Store.Warehouse.load dir with
      | Error _ as e -> typed e
      | Ok view ->
        let run =
          match view.v_entries with e :: _ -> e.e_run | [] -> "pma"
        in
        List.for_all
          (fun e ->
            typed (Store.Warehouse.raw_trace view e)
            && typed (Store.Warehouse.read_index view e))
          view.v_entries
        && typed (Store.Fleet_query.query view Store.Fleet_query.no_filter)
        && typed
             (Store.Fleet_query.query view
                { Store.Fleet_query.no_filter with q_resource = Some "SYS_" })
        && typed (Store.Fleet_query.profile view)
        && typed (Store.Fleet_query.diff view ~run))

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
  with_dir "hth-store-q" @@ fun dir ->
  ignore (build_store ~jobs:2 dir);
  let view = load_store dir in
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

let suite =
  [ Alcotest.test_case "deflate: unit round-trips" `Quick test_deflate_units;
    Test_props.to_alcotest_seeded prop_deflate_roundtrip;
    Alcotest.test_case "deflate: output pinned on goldens" `Quick
      test_deflate_pinned;
    Test_props.to_alcotest_seeded prop_deflate_interleaved;
    Test_props.to_alcotest_seeded prop_deflate_model;
    Alcotest.test_case "deflate: output across the table refill" `Quick
      test_deflate_refill;
    Alcotest.test_case "segment: bytes pinned on goldens" `Quick
      test_segment_pinned;
    Alcotest.test_case "segment: 12-scenario corpus round-trip" `Quick
      test_corpus_roundtrip;
    Alcotest.test_case "segment: index matches a full trace parse" `Quick
      test_index_matches_trace;
    Alcotest.test_case "segment: corruption is a typed Load_failure" `Quick
      test_corruption;
    Test_props.to_alcotest_seeded prop_index_chunking_invariant;
    Alcotest.test_case "warehouse: byte-identical across jobs 1 and 2"
      `Quick test_store_determinism;
    Alcotest.test_case "pack: unpublished tail, then append" `Quick
      test_pack_unpublished_tail;
    Alcotest.test_case "pack: reopen a non-empty store and append" `Quick
      test_pack_reopen;
    Alcotest.test_case "pack: old per-run layout rejected" `Quick
      test_old_layout_rejected;
    Test_props.to_alcotest_seeded prop_store_fuzz;
    Alcotest.test_case "store answers = jsonl answers" `Quick
      test_store_answers_match_jsonl;
    Alcotest.test_case "fleet queries: search, profile, diff" `Quick
      test_fleet_queries ]
