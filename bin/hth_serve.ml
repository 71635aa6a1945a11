(* hth_serve: long-lived analysis service over one shared fleet.

     echo '{"scenario":"pma"}' | dune exec bin/hth_serve.exe -- --jobs 4
     dune exec bin/hth_serve.exe -- --socket /tmp/hth.sock --jobs 4

   One flat-JSON request per line in, one response line out, in input
   order (see Fleet.Serve for the protocol).  The engines — native and
   CLIPS policies — are compiled once at startup and shared by every
   worker; every connection multiplexes onto the same supervised
   fleet, concurrently in socket mode.

   Supervision (DESIGN.md §17): per-request wall-clock deadline with
   wedged-worker respawn (--deadline), per-connection in-flight window
   (--window, blocks the reader), global admission cap
   (--max-inflight, answers {"status":"overloaded","retry":true}), and
   a default tick budget for budget-less requests
   (--default-tick-budget).  SIGTERM/SIGINT in socket mode stop the
   accept loop, drain in-flight work, flush responses, remove the
   socket file and exit 0; in stdin mode signals keep their default
   behavior (EOF on stdin is the graceful path). *)

open Cmdliner

let resolver name =
  Option.map
    (fun (sc : Guest.Scenario.t) ->
      { Fleet.Serve.t_setup = sc.sc_setup;
        t_expected = Guest.Scenario.expected_label sc.sc_expected;
        t_matches = Guest.Scenario.matches sc.sc_expected })
    (Guest.Corpus.find name)

let jobs_arg =
  let doc = "Size of the worker-domain fleet." in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let socket_arg =
  let doc =
    "Listen on a Unix socket at $(docv) instead of serving stdin; \
     connections are served concurrently, each as its own request \
     stream over the one shared fleet.  An existing socket file at \
     $(docv) is replaced atomically."
  in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let deadline_arg =
  let doc =
    "Wall-clock seconds a session may run before the watchdog fails it \
     with a timeout error and replaces its worker domain.  0 disables \
     supervision (a wedged session then pins its worker forever)."
  in
  Arg.(value & opt float 30. & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let window_arg =
  let doc =
    "Per-connection in-flight request window.  A connection that has \
     this many sessions unanswered stops being read until responses \
     flow — deterministic backpressure."
  in
  Arg.(value & opt int 64 & info [ "window" ] ~docv:"N" ~doc)

let max_inflight_arg =
  let doc =
    "Global in-flight cap across all connections; requests past it are \
     answered with status \"overloaded\" and retry:true.  Clamped to \
     at least the per-connection window."
  in
  Arg.(value & opt int 256 & info [ "max-inflight" ] ~docv:"N" ~doc)

let default_ticks_arg =
  let doc =
    "Instruction-tick budget applied to requests that carry none, so a \
     runaway-but-ticking guest fails deterministically before the \
     wall-clock deadline is needed.  0 disables."
  in
  Arg.(
    value
    & opt int 5_000_000
    & info [ "default-tick-budget" ] ~docv:"TICKS" ~doc)

let grace_arg =
  let doc =
    "Seconds to wait at shutdown for clients to finish reading their \
     responses and close, before their connections are cut."
  in
  Arg.(value & opt float 15. & info [ "grace" ] ~docv:"SECONDS" ~doc)

let store_arg =
  let doc =
    "Record every run request into the trace warehouse at $(docv) \
     (created if missing, extended if present): a sealed segment plus \
     manifest entry per request, appended before the response line is \
     emitted, so a drained server leaves complete runs or no run.  \
     Query with hth_trace --store.  {\"op\":\"store_stats\"} reports \
     totals."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let create_service ~jobs ~deadline ~window ~max_inflight ~default_ticks
    ?store () =
  let deadline = if deadline > 0. then Some deadline else None in
  Fleet.Serve.create ~jobs ?deadline
    ~max_inflight:(max window max_inflight)
    ~window ~default_ticks:(max 0 default_ticks) ?store ~resolver ()

let serve_fd svc fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fleet.Serve.serve_connection svc
    ~input:(fun () -> try In_channel.input_line ic with _ -> None)
    ~output:(fun line ->
      output_string oc line;
      output_char oc '\n';
      flush oc)
    ()

(* ------------------------------------------------------------------ *)
(* stdin mode: one connection, EOF drains                              *)

let serve_stdin ~jobs ~deadline ~window ~max_inflight ~default_ticks ?store
    () =
  let svc =
    create_service ~jobs ~deadline ~window ~max_inflight ~default_ticks
      ?store ()
  in
  Fun.protect
    ~finally:(fun () -> Fleet.Serve.shutdown svc)
    (fun () ->
      ignore
        (Fleet.Serve.serve_connection svc
           ~input:(fun () -> In_channel.input_line stdin)
           ~output:(fun line ->
             print_string line;
             print_char '\n';
             flush stdout)
           ()))

(* ------------------------------------------------------------------ *)
(* socket mode: concurrent connections, signal-driven graceful drain   *)

type conn_handle = {
  ch_fd : Unix.file_descr;
  ch_thread : Thread.t;
  ch_done : bool ref;
}

let serve_socket ~jobs ~deadline ~window ~max_inflight ~default_ticks
    ~grace ?store path =
  let svc =
    create_service ~jobs ~deadline ~window ~max_inflight ~default_ticks
      ?store ()
  in
  (* Bind at a private temp path, then rename over PATH: atomic
     replacement of a stale socket with no window where PATH is
     missing or where we delete a file we did not create and then
     crash before binding. *)
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  (try if Sys.file_exists tmp then Sys.remove tmp with Sys_error _ -> ());
  (try
     Unix.bind sock (Unix.ADDR_UNIX tmp);
     Unix.listen sock 16;
     Unix.rename tmp path
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  (* Self-pipe: the handler only sets a flag and pokes the pipe, which
     wakes the select below even if the EINTR is swallowed. *)
  let stop = Atomic.make false in
  let stop_rd, stop_wr = Unix.pipe () in
  Unix.set_nonblock stop_wr;
  let on_signal _ =
    Atomic.set stop true;
    try ignore (Unix.write stop_wr (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let conns_mu = Mutex.create () in
  let conns = ref [] in
  let handle fd fin =
    (try
       let n = serve_fd svc fd in
       Printf.eprintf "hth_serve: connection done, %d request%s\n%!" n
         (if n = 1 then "" else "s")
     with e ->
       Printf.eprintf "hth_serve: connection error: %s\n%!"
         (Printexc.to_string e));
    fin := true;
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  Printf.eprintf "hth_serve: listening on %s (%d worker%s)\n%!" path jobs
    (if jobs = 1 then "" else "s");
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (* always leave no socket file behind, whatever path got us here *)
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let rec accept_loop () =
        if not (Atomic.get stop) then begin
          match Unix.select [ sock; stop_rd ] [] [] (-1.) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
          | readable, _, _ ->
            if List.mem sock readable && not (Atomic.get stop) then begin
              (match Unix.accept sock with
               | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
               | exception
                   Unix.Unix_error
                     ( (Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK),
                       _, _ ) ->
                 ()
               | fd, _ ->
                 (* a client that stops reading must not wedge the
                    drain: writes time out, the connection goes dead *)
                 (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.
                  with Unix.Unix_error _ -> ());
                 let fin = ref false in
                 let th = Thread.create (fun fd -> handle fd fin) fd in
                 Mutex.lock conns_mu;
                 conns :=
                   { ch_fd = fd; ch_thread = th; ch_done = fin } :: !conns;
                 Mutex.unlock conns_mu);
              accept_loop ()
            end
            else accept_loop ()
        end
      in
      accept_loop ();
      Printf.eprintf "hth_serve: draining\n%!";
      (* Stop accepting, refuse new work, let connections finish
         reading and flush every in-flight response; cut stragglers
         after the grace period so drain always terminates. *)
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Fleet.Serve.drain svc;
      Mutex.lock conns_mu;
      let cs = !conns in
      Mutex.unlock conns_mu;
      let closer =
        Thread.create
          (fun () ->
            let steps = int_of_float (ceil (grace *. 10.)) in
            let rec wait n =
              if n > 0 && List.exists (fun c -> not !(c.ch_done)) cs then begin
                Thread.delay 0.1;
                wait (n - 1)
              end
            in
            wait (max 1 steps);
            List.iter
              (fun c ->
                if not !(c.ch_done) then
                  try Unix.shutdown c.ch_fd Unix.SHUTDOWN_RECEIVE
                  with Unix.Unix_error _ -> ())
              cs)
          ()
      in
      List.iter (fun c -> Thread.join c.ch_thread) cs;
      Thread.join closer;
      Fleet.Serve.shutdown svc;
      Printf.eprintf "hth_serve: drained, bye\n%!")

let main jobs socket deadline window max_inflight default_ticks grace
    store_dir =
  let jobs = max 1 jobs in
  let window = max 1 window in
  let store =
    match store_dir with
    | None -> None
    | Some dir -> (
      match Store.Warehouse.open_ dir with
      | Ok wh -> Some wh
      | Error e ->
        Printf.eprintf "hth_serve: %s\n%!" (Hth.Error.to_string e);
        exit 2)
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Store.Warehouse.close store)
    (fun () ->
      match socket with
      | None ->
        serve_stdin ~jobs ~deadline ~window ~max_inflight ~default_ticks
          ?store ()
      | Some path ->
        serve_socket ~jobs ~deadline ~window ~max_inflight ~default_ticks
          ~grace ?store path)

let () =
  let doc = "Hunting Trojan Horses: line-framed JSON analysis service" in
  let info = Cmd.info "hth_serve" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const main $ jobs_arg $ socket_arg $ deadline_arg $ window_arg
            $ max_inflight_arg $ default_ticks_arg $ grace_arg
            $ store_arg)))
