(* Load generator of the end-to-end serve benchmark.

     gen.exe CONFIG OUT      (stdin = connection A, stdout = connection B)

   Both standard descriptors are the client ends of Unix socketpairs
   whose other ends the service process holds, so nothing may be
   printed on stdout.  One process, at most two threads (the main
   thread drives connection A, a second one drives connection B when
   the workload sends store queries).

   The loop is closed: A keeps at most [window] run requests in flight
   and sends the next one only after a response.  With [k > 0] the
   connections are count-locked: A may send run i only while
   i < k * (queries answered + 1), and B sends query j only once k * j
   runs have been answered, so the warehouse grows per request and not
   per second (a faster append path must not make later queries read
   a bigger store).

   Requests are drawn, with replacement, from the CONFIG tables by a
   PRNG seeded with [seed] and [round] (the benchmark runs several
   rounds per seed).  OUT receives one line per request:

     A|B <index> <table row> <send ns> <recv ns> <response line>

   (recv ns is -1 and the response empty when none arrived), plus
   [start]/[end] lines bounding the measured phase.  The loop runs
   [warm] seconds before the measured phase begins, under the same
   load, so pools, caches and heaps settle before timing; those
   answers are written too and checked, but not timed.  When the
   measured phase begins, A sends the line [#mark] (see svc.ml).
   With [spans 1] each measured request is also kept as a client span
   in memory and written to OUT.spans as JSONL when the run ends. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type conf = {
  warm : float;
  seconds : float;
  window : int;
  k : int;  (* runs per answered query; 0 = no queries *)
  seed : int;
  round : int;
  spans : bool;
  runs : string array;  (* request bodies without an id *)
  queries : string array;
}

let read_conf path =
  let ic = open_in path in
  let kv key =
    let l = input_line ic in
    Scanf.sscanf l "%s %s" (fun k v ->
        if k <> key then failwith (Printf.sprintf "gen: expected %s, got %s" key k);
        v)
  in
  let warm = float_of_string (kv "warm") in
  let seconds = float_of_string (kv "seconds") in
  let window = int_of_string (kv "window") in
  let k = int_of_string (kv "k") in
  let seed = int_of_string (kv "seed") in
  let round = int_of_string (kv "round") in
  let spans = kv "spans" = "1" in
  let table key = Array.init (int_of_string (kv key)) (fun _ -> input_line ic) in
  let runs = table "runs" in
  let queries = table "queries" in
  close_in ic;
  { warm; seconds; window; k; seed; round; spans; runs; queries }

(* [{"scenario":...}] -> [{"id":"a7","scenario":...}] *)
let with_id id body =
  Printf.sprintf "{\"id\":%S,%s" id (String.sub body 1 (String.length body - 1))

type record = {
  r_conn : char;
  r_idx : int;
  r_row : int;
  r_send : int;
  mutable r_recv : int;
  mutable r_resp : string;
}

(* shared by the two connection loops *)
type lock = {
  mu : Mutex.t;
  cv : Condition.t;
  mutable runs_answered : int;
  mutable queries_answered : int;
  mutable a_done : bool;
  mutable b_done : bool;
}

let bump lock f =
  Mutex.lock lock.mu;
  f lock;
  Condition.broadcast lock.cv;
  Mutex.unlock lock.mu

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let receive ic r =
  match In_channel.input_line ic with
  | Some line ->
    r.r_recv <- now ();
    r.r_resp <- line;
    true
  | None | (exception Sys_error _) -> false

let run_a conf lock ~start ~deadline ic oc =
  let rng = Random.State.make [| conf.seed; conf.round; 0xA |] in
  let inflight = Queue.create () in
  let out = ref [] in
  let may_send sent =
    conf.k = 0
    || sent < conf.k * (lock.queries_answered + 1)
    || lock.b_done
  in
  let marked = ref false in
  let rec loop sent =
    if (not !marked) && now () >= start then begin
      marked := true;
      send oc "#mark"
    end;
    Mutex.lock lock.mu;
    let allowed = may_send sent in
    Mutex.unlock lock.mu;
    if now () < deadline && Queue.length inflight < conf.window && allowed
    then begin
      let row = Random.State.int rng (Array.length conf.runs) in
      let line = with_id (Printf.sprintf "a%d" sent) conf.runs.(row) in
      let r =
        { r_conn = 'A'; r_idx = sent; r_row = row; r_send = now ();
          r_recv = -1; r_resp = "" }
      in
      send oc line;
      Queue.push r inflight;
      out := r :: !out;
      loop (sent + 1)
    end
    else if not (Queue.is_empty inflight) then begin
      if receive ic (Queue.pop inflight) then begin
        bump lock (fun l -> l.runs_answered <- l.runs_answered + 1);
        loop sent
      end
    end
    else if now () < deadline then begin
      (* held by the count lock until B's query is answered *)
      Mutex.lock lock.mu;
      while (not (may_send sent)) && not lock.b_done do
        Condition.wait lock.cv lock.mu
      done;
      Mutex.unlock lock.mu;
      loop sent
    end
  in
  loop 0;
  bump lock (fun l -> l.a_done <- true);
  List.rev !out

let run_b conf lock ~deadline ic oc =
  let rng = Random.State.make [| conf.seed; conf.round; 0xB |] in
  let out = ref [] in
  let rec loop j =
    Mutex.lock lock.mu;
    while lock.runs_answered < conf.k * j && not lock.a_done do
      Condition.wait lock.cv lock.mu
    done;
    let a_done = lock.a_done in
    Mutex.unlock lock.mu;
    if now () < deadline && not a_done then begin
      let row = Random.State.int rng (Array.length conf.queries) in
      let line = with_id (Printf.sprintf "q%d" j) conf.queries.(row) in
      let r =
        { r_conn = 'B'; r_idx = j; r_row = row; r_send = now ();
          r_recv = -1; r_resp = "" }
      in
      send oc line;
      out := r :: !out;
      if receive ic r then begin
        bump lock (fun l -> l.queries_answered <- j + 1);
        loop (j + 1)
      end
    end
  in
  loop 0;
  bump lock (fun l -> l.b_done <- true);
  List.rev !out

let span_line round r =
  Printf.sprintf
    "{\"kind\":\"span\",\"req\":\"r%d.%c%d\",\"name\":\"client.%s\",\"parent\":\"\",\"start_ns\":%d,\"end_ns\":%d}\n"
    round (Char.lowercase_ascii r.r_conn) r.r_idx
    (if r.r_conn = 'A' then "run" else "query")
    r.r_send r.r_recv

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let conf = read_conf Sys.argv.(1) in
  let out_path = Sys.argv.(2) in
  (* a wedged service must not hold the generator forever *)
  List.iter
    (fun fd -> Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.)
    [ Unix.stdin; Unix.stdout ];
  let ic_a = Unix.in_channel_of_descr Unix.stdin in
  let oc_a = Unix.out_channel_of_descr Unix.stdin in
  let ic_b = Unix.in_channel_of_descr Unix.stdout in
  let oc_b = Unix.out_channel_of_descr Unix.stdout in
  let lock =
    { mu = Mutex.create (); cv = Condition.create (); runs_answered = 0;
      queries_answered = 0; a_done = false; b_done = conf.k = 0 }
  in
  let start = now () + int_of_float (conf.warm *. 1e9) in
  let deadline = start + int_of_float (conf.seconds *. 1e9) in
  let queries = ref [] in
  let b =
    if conf.k = 0 then None
    else
      Some
        (Thread.create
           (fun () -> queries := run_b conf lock ~deadline ic_b oc_b)
           ())
  in
  let runs = run_a conf lock ~start ~deadline ic_a oc_a in
  Option.iter Thread.join b;
  let stop = now () in
  (* client spans are built only in traced runs, kept in memory and
     written once the measured phase is over *)
  let spans =
    if conf.spans then
      List.filter_map
        (fun r -> if r.r_send >= start then Some (span_line conf.round r) else None)
        (runs @ !queries)
    else []
  in
  let oc = open_out out_path in
  Printf.fprintf oc "start %d\nend %d\n" start stop;
  List.iter
    (fun r ->
      Printf.fprintf oc "%c %d %d %d %d %s\n" r.r_conn r.r_idx r.r_row
        r.r_send r.r_recv r.r_resp)
    (runs @ !queries);
  close_out oc;
  if conf.spans then begin
    let oc = open_out (out_path ^ ".spans") in
    List.iter (output_string oc) spans;
    close_out oc
  end
