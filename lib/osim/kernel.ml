let log_src = Logs.Src.create "hth.kernel" ~doc:"simulated kernel"

module Log = (val Logs.src_log log_src)

type decision = Allow | Kill

type monitor = {
  mutable on_process_start : Process.t -> unit;
  mutable on_image_load : Process.t -> Binary.Image.t -> unit;
  mutable on_pre_syscall : Process.t -> Syscall.t -> decision;
  mutable on_post_syscall : Process.t -> Syscall.t -> result:int -> unit;
  mutable on_fork : parent:Process.t -> child:Process.t -> unit;
}

let null_monitor () =
  { on_process_start = (fun _ -> ());
    on_image_load = (fun _ _ -> ());
    on_pre_syscall = (fun _ _ -> Allow);
    on_post_syscall = (fun _ _ ~result:_ -> ());
    on_fork = (fun ~parent:_ ~child:_ -> ()) }

type t = {
  k_fs : Fs.t;
  k_net : Net.t;
  k_monitor : monitor;
  k_fault : Fault.state;  (* deterministic fault-injection decisions *)
  max_procs : int;
  mutable procs : Process.t list;  (* in spawn order *)
  mutable next_pid : int;
  mutable k_ticks : int;
  mutable input : string list;
  console_buf : Buffer.t;
  mutable clones : int;
  mutable max_live : int;
  mutable last_run_pid : int;  (* previous quantum's pid, for switch count *)
}

let c_syscalls = Obs.Counter.make "osim.syscalls"
let c_switches = Obs.Counter.make "osim.context_switches"
let c_faults = Obs.Counter.make "osim.faults.injected"

let stack_top = 0xFF000

(* The scheduler time slice, in instructions. *)
let quantum = 2000

let create ?(max_procs = 48) ?(user_input = []) ?(fault = Fault.none) ~fs
    ~net () =
  { k_fs = fs; k_net = net; k_monitor = null_monitor ();
    k_fault = Fault.start fault;
    max_procs; procs = []; next_pid = 1; k_ticks = 0; input = user_input;
    console_buf = Buffer.create 256; clones = 0; max_live = 0;
    last_run_pid = -1 }

let fs k = k.k_fs
let monitor k = k.k_monitor
let ticks k = k.k_ticks
let live_count k = List.length (List.filter Process.is_live k.procs)
let clone_total k = k.clones

(* ------------------------------------------------------------------ *)
(* Loader                                                              *)

(* Loader failures are per-process outcomes, never process aborts: both
   carriers ([spawn], [do_exec]) catch this and report a clean error. *)
exception Load_failed of string

(* The one place images are linked.  Collect the needed-closure of
   [path] from the world's file system in load order and link every
   member against the closure's exports; only images that carry
   relocations are copied, once per load.  A path is marked seen when
   its walk starts, so images that need each other load once each. *)
let load k path =
  let rec collect (seen, loaded) path =
    if List.mem path seen then (seen, loaded)
    else
      match Fs.image_of k.k_fs path with
      | None ->
        raise (Load_failed (Fmt.str "loader: %s: not an executable image" path))
      | Some (img : Binary.Image.t) ->
        let seen, loaded =
          List.fold_left collect (path :: seen, loaded) img.needed
        in
        (seen, loaded @ [ img ])
  in
  let _, images = collect ([], []) path in
  let resolve sym =
    List.find_map
      (fun (i : Binary.Image.t) -> Binary.Symbol.find_export i.exports sym)
      images
  in
  List.map
    (fun i ->
      match Binary.Image.link i ~resolve with
      | Ok linked -> linked
      | Error msg -> raise (Load_failed ("loader: " ^ msg)))
    images

(* The initial stack: NUL-terminated argv/env strings at the top, then
   the vector [argc argv0 .. argvN 0 env0 .. envM 0] that esp points
   at.  The monitor tags [esp, stack_top) USER_INPUT. *)
let setup_stack m ~argv ~env =
  let open Vm.Machine in
  let pos = ref stack_top in
  let place s =
    pos := !pos - (String.length s + 1);
    write_string m !pos (s ^ "\000");
    !pos
  in
  let argv_ptrs = List.map place argv in
  let env_ptrs = List.map place env in
  pos := !pos land lnot 3;
  let vector =
    (List.length argv :: argv_ptrs) @ [ 0 ] @ env_ptrs @ [ 0 ]
  in
  pos := !pos - (4 * List.length vector);
  List.iteri (fun i w -> write_word m (!pos + (4 * i)) w) vector;
  set_reg m ESP !pos

let fresh_machine k path ~argv ~env =
  let images = load k path in
  let m = Vm.Machine.create () in
  List.iter (Vm.Machine.map_image m) images;
  setup_stack m ~argv ~env;
  let entry =
    match
      List.find_opt
        (fun (i : Binary.Image.t) -> String.equal i.path path)
        images
    with
    | Some img -> img.entry
    | None ->
      (* [load] always returns the requested image; defend
         against loader regressions without aborting the process *)
      raise (Load_failed (Fmt.str "loader: %s: no entry image" path))
  in
  Vm.Machine.set_eip m entry;
  m, images

let spawn ?(env = []) k ~path ~argv =
  match fresh_machine k path ~argv ~env with
  | exception Load_failed msg -> Error msg
  | machine, images ->
    let p =
      Process.with_std_fds
        (Process.create ~pid:k.next_pid ~machine ~exe_path:path ~argv)
    in
    k.next_pid <- k.next_pid + 1;
    k.procs <- p :: k.procs;
    k.max_live <- max k.max_live (live_count k);
    k.k_monitor.on_process_start p;
    List.iter (k.k_monitor.on_image_load p) images;
    Ok p

(* ------------------------------------------------------------------ *)
(* Syscall decoding                                                    *)

let resource_of_fd p fd : Syscall.resource =
  match Process.fd p fd with
  | None -> R_unknown
  | Some Std_in -> R_stdin
  | Some Std_out -> R_stdout
  | Some Std_err -> R_stderr
  | Some (Fd_file { path; _ }) -> R_file path
  | Some (Fd_sock sock) ->
    (match sock.state with
     | Connected c ->
       R_sock
         { sr_peer = Some c.peer; sr_local = Some c.local_name;
           sr_server_side = c.server_side }
     | Listening port ->
       R_sock
         { sr_peer = None; sr_local = Some (Fmt.str "LocalHost:%d" port);
           sr_server_side = true }
     | Fresh | Bound _ | Closed ->
       R_sock { sr_peer = None; sr_local = None; sr_server_side = false })

let read_argv m ptr =
  if ptr = 0 then []
  else
    let rec go i acc =
      if i >= 16 then List.rev acc
      else
        let p = Vm.Machine.read_word m (ptr + (4 * i)) in
        if p = 0 then List.rev acc
        else go (i + 1) (Vm.Machine.read_cstring m p :: acc)
    in
    go 0 []

let decode k p nr : Syscall.t =
  let m = p.Process.machine in
  let reg r = Vm.Machine.get_reg m r in
  let ebx = reg EBX and ecx = reg ECX and edx = reg EDX in
  if nr = Abi.sys_exit then Exit { code = ebx }
  else if nr = Abi.sys_fork || nr = Abi.sys_clone then Fork
  else if nr = Abi.sys_read then
    Read { fd = ebx; res = resource_of_fd p ebx; buf = ecx; len = edx }
  else if nr = Abi.sys_write then
    Write { fd = ebx; res = resource_of_fd p ebx; buf = ecx; len = edx }
  else if nr = Abi.sys_open then
    Open { path_addr = ebx; path = Vm.Machine.read_cstring m ebx;
           flags = ecx }
  else if nr = Abi.sys_creat then
    Creat { path_addr = ebx; path = Vm.Machine.read_cstring m ebx }
  else if nr = Abi.sys_close then Close { fd = ebx; res = resource_of_fd p ebx }
  else if nr = Abi.sys_execve then
    Execve { path_addr = ebx; path = Vm.Machine.read_cstring m ebx;
             argv = read_argv m ecx }
  else if nr = Abi.sys_time then Time
  else if nr = Abi.sys_getpid then Getpid
  else if nr = Abi.sys_dup then Dup { fd = ebx; res = resource_of_fd p ebx }
  else if nr = Abi.sys_nanosleep then Nanosleep { duration = ebx }
  else if nr = Abi.sys_brk then Brk { addr = ebx }
  else if nr = Abi.sys_socketcall then begin
    let arg i = Vm.Machine.read_word m (ecx + (4 * i)) in
    let sub = ebx in
    if sub = Abi.sock_socket then Socket
    else if sub = Abi.sock_bind then begin
      let addr_ptr = arg 1 in
      let _ip, port =
        Abi.read_sockaddr (Vm.Machine.read_word m) addr_ptr
      in
      Bind { fd = arg 0; addr_ptr; port }
    end
    else if sub = Abi.sock_connect then begin
      let addr_ptr = arg 1 in
      let ip, port = Abi.read_sockaddr (Vm.Machine.read_word m) addr_ptr in
      Connect
        { fd = arg 0; addr_ptr; ip; port;
          addr_name = Fmt.str "%s:%d" (Net.host_of_ip k.k_net ip) port }
    end
    else if sub = Abi.sock_listen then begin
      let fd = arg 0 in
      let port =
        match Process.fd p fd with
        | Some (Fd_sock { state = Bound port; _ })
        | Some (Fd_sock { state = Listening port; _ }) -> port
        | Some _ | None -> 0
      in
      Listen { fd; port }
    end
    else if sub = Abi.sock_accept then begin
      let fd = arg 0 in
      let port =
        match Process.fd p fd with
        | Some (Fd_sock { state = Listening port; _ })
        | Some (Fd_sock { state = Bound port; _ }) -> port
        | Some _ | None -> 0
      in
      Accept { fd; port; out_addr = arg 1; peer = None }
    end
    else if sub = Abi.sock_send then
      Write { fd = arg 0; res = resource_of_fd p (arg 0); buf = arg 1;
              len = arg 2 }
    else if sub = Abi.sock_recv then
      Read { fd = arg 0; res = resource_of_fd p (arg 0); buf = arg 1;
             len = arg 2 }
    else Unknown { number = nr }
  end
  else Unknown { number = nr }

(* ------------------------------------------------------------------ *)
(* Syscall execution                                                   *)

type exec_result =
  | Done of int
  | Block
  | Exec_ed

let do_fork k (p : Process.t) =
  if live_count k >= k.max_procs then Done (-Abi.eagain)
  else begin
    let child_machine = Vm.Machine.clone p.machine in
    Vm.Machine.set_reg child_machine EAX 0;
    let child =
      Process.create ~pid:k.next_pid ~machine:child_machine
        ~exe_path:p.exe_path ~argv:p.argv
    in
    k.next_pid <- k.next_pid + 1;
    Process.copy_fds ~src:p ~dst:child;
    k.procs <- child :: k.procs;
    k.clones <- k.clones + 1;
    k.max_live <- max k.max_live (live_count k);
    k.k_monitor.on_fork ~parent:p ~child;
    Done child.pid
  end

let do_exec k (p : Process.t) path argv =
  if not (Fs.exists k.k_fs path) then Done (-Abi.enoent)
  else
    match fresh_machine k path ~argv ~env:[] with
    | exception Load_failed _ -> Done (-Abi.enoexec)
    | machine, images ->
      p.machine <- machine;
      p.exe_path <- path;
      p.argv <- argv;
      k.k_monitor.on_process_start p;
      List.iter (k.k_monitor.on_image_load p) images;
      Exec_ed

let read_stdin k m buf len =
  match k.input with
  | [] -> Done 0
  | chunk :: rest ->
    let n = min len (String.length chunk) in
    let give = String.sub chunk 0 n in
    let keep = String.sub chunk n (String.length chunk - n) in
    k.input <- (if keep = "" then rest else keep :: rest);
    Vm.Machine.write_string m buf give;
    Done n

let sock_of_fd p fd =
  match Process.fd p fd with
  | Some (Fd_sock s) -> Some s
  | Some _ | None -> None

let execute k (p : Process.t) (sc : Syscall.t) : exec_result =
  let m = p.machine in
  match sc with
  | Exit { code } ->
    p.state <- Exited code;
    Done 0
  | Fork -> do_fork k p
  | Read { fd; buf; len; _ } ->
    (match Process.fd p fd with
     | None | Some Std_out | Some Std_err -> Done (-Abi.ebadf)
     | Some Std_in -> read_stdin k m buf len
     | Some (Fd_file fr) when fr.flags land 3 = Abi.o_wronly ->
       Done (-Abi.ebadf)  (* read on a write-only descriptor *)
     | Some (Fd_file fr) ->
       let file = Fs.ensure k.k_fs fr.path in
       let s = Fs.read_at file ~pos:fr.offset ~len in
       Vm.Machine.write_string m buf s;
       fr.offset <- fr.offset + String.length s;
       Done (String.length s)
     | Some (Fd_sock sock) ->
       (match sock.state with
        | Connected c ->
          let s = Net.guest_recv c len in
          if s = "" then (if c.remote_closed then Done 0 else Block)
          else begin
            Vm.Machine.write_string m buf s;
            Done (String.length s)
          end
        | Fresh | Bound _ | Listening _ | Closed -> Done (-Abi.einval)))
  | Write { fd; buf; len; _ } ->
    let data = Vm.Machine.read_bytes m buf len in
    (match Process.fd p fd with
     | None | Some Std_in -> Done (-Abi.ebadf)
     | Some Std_out | Some Std_err ->
       Buffer.add_string k.console_buf data;
       Done len
     | Some (Fd_file fr) when fr.flags land 3 = Abi.o_rdonly ->
       Done (-Abi.ebadf)  (* write on a read-only descriptor *)
     | Some (Fd_file fr) ->
       let file = Fs.ensure k.k_fs fr.path in
       Fs.write_at file ~pos:fr.offset data;
       fr.offset <- fr.offset + len;
       Done len
     | Some (Fd_sock sock) ->
       (match sock.state with
        | Connected c ->
          Net.guest_send k.k_net c data;
          Done len
        | Fresh | Bound _ | Listening _ | Closed -> Done (-Abi.einval)))
  | Open { path; flags; _ } ->
    let exists = Fs.exists k.k_fs path in
    if (not exists) && flags land Abi.o_creat = 0 then Done (-Abi.enoent)
    else begin
      let file = Fs.ensure k.k_fs path in
      if flags land Abi.o_trunc <> 0 then Fs.truncate file;
      let offset =
        if flags land Abi.o_append <> 0 then Fs.size file else 0
      in
      Done (Process.alloc_fd p (Fd_file { path; offset; flags }))
    end
  | Creat { path; _ } ->
    let file = Fs.ensure k.k_fs path in
    Fs.truncate file;
    Done
      (Process.alloc_fd p
         (Fd_file { path; offset = 0; flags = Abi.o_wronly }))
  | Close { fd; _ } ->
    (match sock_of_fd p fd with
     | Some sock -> sock.state <- Closed
     | None -> ());
    if Process.close_fd p fd then Done 0 else Done (-Abi.ebadf)
  | Execve { path; argv; _ } -> do_exec k p path argv
  | Time -> Done (k.k_ticks land 0x3FFFFFFF)
  | Getpid -> Done p.pid
  | Dup { fd; _ } ->
    (match Process.fd p fd with
     | None -> Done (-Abi.ebadf)
     | Some (Fd_file { path; offset; flags }) ->
       Done (Process.alloc_fd p (Fd_file { path; offset; flags }))
     | Some kind -> Done (Process.alloc_fd p kind))
  | Nanosleep { duration } ->
    p.state <- Sleeping (k.k_ticks + max 1 duration);
    Done 0
  | Brk { addr } ->
    if addr = 0 then Done p.brk
    else if addr < Process.initial_brk || addr >= stack_top - 0x1000 then
      Done p.brk  (* refused: return the unchanged break, as Linux does *)
    else begin
      p.brk <- addr;
      Done addr
    end
  | Socket ->
    let s = Net.new_socket k.k_net in
    Done (Process.alloc_fd p (Fd_sock s))
  | Bind { fd; port; _ } ->
    (match sock_of_fd p fd with
     | Some sock ->
       sock.state <- Bound port;
       Done 0
     | None -> Done (-Abi.ebadf))
  | Listen { fd; _ } ->
    (match sock_of_fd p fd with
     | Some ({ state = Bound port; _ } as sock) ->
       sock.state <- Listening port;
       Done 0
     | Some { state = Listening _; _ } -> Done 0
     | Some _ -> Done (-Abi.einval)
     | None -> Done (-Abi.ebadf))
  | Connect { fd; ip; port; _ } ->
    (match sock_of_fd p fd with
     | Some sock ->
       (match Net.connect k.k_net sock ~ip ~port with
        | Some _ -> Done 0
        | None -> Done (-Abi.econnrefused))
     | None -> Done (-Abi.ebadf))
  | Accept acc ->
    (match sock_of_fd p acc.fd with
     | Some sock ->
       (match Net.accept k.k_net sock with
        | Some conn ->
          let ns = Net.new_socket k.k_net in
          ns.state <- Connected conn;
          acc.peer <- Some conn.peer;
          if acc.out_addr <> 0 then begin
            let ip =
              match String.index_opt conn.peer ':' with
              | Some i ->
                (match Net.resolve k.k_net (String.sub conn.peer 0 i) with
                 | Some ip -> ip
                 | None -> 0)
              | None -> 0
            in
            Abi.write_sockaddr (Vm.Machine.write_byte m) acc.out_addr ~ip
              ~port:acc.port
          end;
          Done (Process.alloc_fd p (Fd_sock ns))
        | None -> Block)
     | None -> Done (-Abi.ebadf))
  | Unknown _ -> Done (-38 (* ENOSYS *))

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

(* The resource identity a fault plan matches against, plus whether it
   is a socket (seeded plans draw socket faults for those). *)
let fault_res (sc : Syscall.t) =
  let of_res : Syscall.resource -> string * bool = function
    | R_stdin -> "stdin", false
    | R_stdout -> "stdout", false
    | R_stderr -> "stderr", false
    | R_file path -> path, false
    | R_sock { sr_peer = Some peer; _ } -> peer, true
    | R_sock { sr_local = Some local; _ } -> local, true
    | R_sock _ -> "sock", true
    | R_unknown -> "?", false
  in
  match sc with
  | Open { path; _ } | Creat { path; _ } | Execve { path; _ } -> path, false
  | Read { res; _ } | Write { res; _ } | Close { res; _ } | Dup { res; _ } ->
    of_res res
  | Connect { addr_name; _ } -> addr_name, true
  | Bind { port; _ } | Listen { port; _ } | Accept { port; _ } ->
    Fmt.str "LocalHost:%d" port, true
  | Exit _ | Fork | Time | Getpid | Nanosleep _ | Brk _ | Socket
  | Unknown _ -> "", false

(* A short read/write delivers at least one byte but at most half the
   request — deterministic, so faulted traces replay byte-identically. *)
let shorten (sc : Syscall.t) : Syscall.t =
  match sc with
  | Read { fd; res; buf; len } when len > 1 ->
    Read { fd; res; buf; len = max 1 (len / 2) }
  | Write { fd; res; buf; len } when len > 1 ->
    Write { fd; res; buf; len = max 1 (len / 2) }
  | _ -> sc

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)

let handle_syscall k (p : Process.t) ~retry =
  let m = p.machine in
  let nr = Vm.Machine.get_reg m EAX in
  match decode k p nr with
  | exception Vm.Machine.Fault_exn f ->
    p.state <- Killed (Fmt.str "syscall decode fault: %a" Vm.Machine.pp_fault f)
  | sc0 ->
    (* consult the fault plan once per attempt (never on the retry of a
       blocked call, so a stall is transient rather than a livelock) *)
    let fault =
      if retry || not (Fault.active k.k_fault) then None
      else begin
        let res, sock = fault_res sc0 in
        Fault.decide k.k_fault ~call:(Syscall.name sc0) ~res ~sock
      end
    in
    let sc = match fault with Some Fault.Short -> shorten sc0 | _ -> sc0 in
    let note_injection f =
      Obs.Counter.incr c_faults;
      Obs.Counter.incr
        (Obs.Counter.labeled "osim.faults.injected" (Fault.kind_name f));
      if Obs.Trace.enabled () then begin
        let res, _ = fault_res sc in
        Obs.Trace.emit "fault"
          [ "call", Obs.Str (Syscall.name sc); "res", Obs.Str res;
            "kind", Obs.Str (Fault.kind_name f); "pid", Obs.Int p.pid;
            "tick", Obs.Int k.k_ticks ]
      end
    in
    let proceed =
      if retry then true
      else
        match k.k_monitor.on_pre_syscall p sc with
        | Allow -> true
        | Kill ->
          p.state <- Killed "terminated by security policy";
          false
    in
    if proceed then begin
      if p.state = Waiting_io then p.state <- Runnable;
      Log.debug (fun f ->
          f "[%d] pid %d %a" k.k_ticks p.pid Syscall.pp sc);
      if not retry then begin
        Obs.Counter.incr c_syscalls;
        Obs.Counter.incr (Obs.Counter.labeled "osim.syscalls" (Syscall.name sc))
      end;
      let trace_done result =
        if Obs.Trace.enabled () then
          Obs.Trace.emit "syscall"
            [ "call", Obs.Str (Syscall.name sc); "pid", Obs.Int p.pid;
              "tick", Obs.Int k.k_ticks; "result", Obs.Int result ]
      in
      let run_call () =
        match fault with
        | None -> execute k p sc
        | Some f ->
          note_injection f;
          (match f with
           | Fault.Errno e -> Done (-e)
           | Fault.Reset -> Done (-Abi.econnreset)
           | Fault.Stall -> Block
           | Fault.Short -> execute k p sc)
      in
      match run_call () with
      | exception Vm.Machine.Fault_exn f ->
        p.state <- Killed (Fmt.str "syscall fault: %a" Vm.Machine.pp_fault f)
      | Done r ->
        Vm.Machine.set_reg m EAX r;
        p.pending <- None;
        trace_done r;
        k.k_monitor.on_post_syscall p sc ~result:r
      | Block ->
        p.state <- Waiting_io;
        p.pending <- Some nr
      | Exec_ed ->
        p.pending <- None;
        trace_done 0;
        k.k_monitor.on_post_syscall p sc ~result:0
    end

let run_quantum k (p : Process.t) =
  if p.pid <> k.last_run_pid then begin
    Obs.Counter.incr c_switches;
    k.last_run_pid <- p.pid
  end;
  let steps = ref 0 in
  (* constructor match, not polymorphic compare — this test runs once
     per simulated instruction *)
  let runnable () =
    match p.state with Process.Runnable -> true | _ -> false
  in
  while !steps < quantum && runnable () do
    (* tiered dispatch: a hot straight-line block retires as one unit
       (never overrunning the quantum — blocks longer than the
       remaining fuel are interpreted); everything else is exactly one
       interpreted step.  Ticks advance by the retired count before the
       outcome is handled, so a syscall observes the same clock as
       under per-instruction stepping. *)
    let out, n =
      Vm.Machine.step_block p.machine ~fuel:(quantum - !steps)
    in
    steps := !steps + n;
    k.k_ticks <- k.k_ticks + n;
    match out with
    | Continue -> ()
    | Syscall 0x80 -> handle_syscall k p ~retry:false
    | Syscall _ -> Vm.Machine.set_reg p.machine EAX (-38)
    | Stopped Halted -> p.state <- Exited 0
    | Stopped (Faulted f) ->
      p.state <- Killed (Fmt.to_to_string Vm.Machine.pp_fault f)
    | Stopped Running ->
      (* a VM invariant violation; contain it to this process *)
      p.state <- Killed "vm invariant: step returned Stopped Running"
  done

type report = {
  rep_ticks : int;
  rep_console : string;
  rep_final : (int * string * Process.run_state) list;
  rep_clones : int;
  rep_max_live : int;
}

let make_report k =
  { rep_ticks = k.k_ticks; rep_console = Buffer.contents k.console_buf;
    rep_final =
      List.rev_map
        (fun (p : Process.t) -> p.pid, p.exe_path, p.state)
        k.procs;
    rep_clones = k.clones; rep_max_live = k.max_live }

let run k ~max_ticks =
  let running = ref true in
  while !running do
    let live = List.filter Process.is_live k.procs in
    if live = [] || k.k_ticks >= max_ticks then running := false
    else begin
      (* deliver Delay-gated script steps whose deadline passed *)
      Net.tick k.k_net k.k_ticks;
      (* wake sleepers whose deadline passed *)
      List.iter
        (fun (p : Process.t) ->
          match p.state with
          | Sleeping t when t <= k.k_ticks -> p.state <- Runnable
          | Sleeping _ | Runnable | Waiting_io | Exited _ | Killed _ -> ())
        live;
      (* retry blocked syscalls *)
      List.iter
        (fun (p : Process.t) ->
          if p.state = Waiting_io then handle_syscall k p ~retry:true)
        live;
      let runnable =
        List.filter (fun (p : Process.t) -> p.state = Runnable) live
      in
      if runnable = [] then begin
        let wakes =
          List.filter_map
            (fun (p : Process.t) ->
              match p.state with Sleeping t -> Some t | _ -> None)
            live
        in
        (* a pending network Delay also counts as a wake source: a
           guest blocked on recv is not "blocked forever" when a
           scripted delivery is merely late *)
        let wakes =
          match Net.next_wake k.k_net with
          | Some w -> w :: wakes
          | None -> wakes
        in
        match wakes with
        | [] ->
          (* every live process is blocked on I/O that can never arrive *)
          List.iter
            (fun (p : Process.t) ->
              if p.state = Waiting_io then
                p.state <- Killed "blocked forever (reaped)")
            live;
          running := false
        | w :: ws ->
          k.k_ticks <- max k.k_ticks (List.fold_left min w ws)
      end
      else
        (* round-robin: oldest process first *)
        List.iter
          (fun (p : Process.t) ->
            if p.state = Runnable && k.k_ticks < max_ticks then
              run_quantum k p)
          (List.rev runnable)
    end
  done;
  make_report k

let pp_report ppf r =
  let pp_proc ppf (pid, exe, state) =
    Fmt.pf ppf "pid %d %s: %a" pid exe Process.pp_state state
  in
  Fmt.pf ppf
    "@[<v>ticks: %d@,clones: %d@,max live: %d@,%a@,console: %S@]"
    r.rep_ticks r.rep_clones r.rep_max_live
    Fmt.(list ~sep:cut pp_proc)
    r.rep_final r.rep_console
