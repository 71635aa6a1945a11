(* Service process of the end-to-end serve benchmark.

     svc.exe WAREHOUSE REPORT   (stdin = connection A, stdout = connection B)

   Runs the real service, Fleet.Serve, configured as hth_serve runs it
   by default (see Service_conf) with the warehouse at WAREHOUSE
   attached.  The two standard descriptors are the service ends of
   Unix socketpairs, each served as one connection; nothing may be
   printed on stdout.

   Lines [#setup] and [#mark] on connection A are not requests.  The
   benchmark sends [#setup] after the last warm-up answer; the process
   CPU time then is reported as the set-up's.  The generator sends
   [#mark] when the measured phase begins; the process CPU time and
   the GC and pool counters are reported as deltas from that point.
   When both connections have closed, the service shuts down and
   writes REPORT as [key value] lines. *)

let vmhwm_kb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match In_channel.input_line ic with
    | None -> -1
    | Some l ->
      (try Scanf.sscanf l "VmHWM: %d kB" Fun.id with _ -> find ())
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let cpu () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

type marks = { gc : Gc.stat; pool : Fleet.Pool.stats; cpu : float }

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = Sys.argv.(1) and report = Sys.argv.(2) in
  let wh =
    match Store.Warehouse.open_ dir with
    | Ok wh -> wh
    | Error e ->
      prerr_endline ("svc: " ^ Hth.Error.to_string e);
      exit 2
  in
  let svc = Service_conf.create ~store:wh in
  let sample () =
    { gc = Gc.quick_stat ();
      pool = (Fleet.Supervisor.health (Fleet.Serve.supervisor svc)).h_stats;
      cpu = cpu () }
  in
  let mark = ref None and setup_cpu = ref 0. in
  let connection fd =
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let rec input () =
      match In_channel.input_line ic with
      | Some "#setup" ->
        setup_cpu := cpu ();
        input ()
      | Some "#mark" ->
        mark := Some (sample ());
        input ()
      | line -> line
      | exception Sys_error _ -> None
    in
    Thread.create
      (fun () ->
        ignore
          (Fleet.Serve.serve_connection svc ~input
             ~output:(fun line ->
               output_string oc line;
               output_char oc '\n';
               flush oc)
             ()))
      ()
  in
  let a = connection Unix.stdin and b = connection Unix.stdout in
  Thread.join a;
  Thread.join b;
  let stop = sample () in
  Fleet.Serve.shutdown svc;
  Store.Warehouse.close wh;
  let start = Option.value !mark ~default:stop in
  let oc = open_out report in
  List.iter
    (fun (k, v) -> Printf.fprintf oc "%s %d\n" k v)
    [ "vmhwm_kb", vmhwm_kb ();
      "executed", stop.pool.executed - start.pool.executed;
      "parks", stop.pool.parks - start.pool.parks;
      "steals", stop.pool.stolen - start.pool.stolen;
      "minor_gcs", stop.gc.minor_collections - start.gc.minor_collections;
      "major_gcs", stop.gc.major_collections - start.gc.major_collections;
      "top_heap_words", stop.gc.top_heap_words;
      "cpu_us", int_of_float ((stop.cpu -. start.cpu) *. 1e6);
      "setup_cpu_us", int_of_float (!setup_cpu *. 1e6) ];
  close_out oc
