(* Unit and integration tests for the simulated OS: filesystem, network,
   processes, and the kernel's syscall layer (driven by real guest
   programs). *)

open Osim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Filesystem                                                          *)

let test_fs_basics () =
  let fs = Fs.create () in
  check "absent" false (Fs.exists fs "/a");
  Fs.install fs "/a" "hello";
  check "present" true (Fs.exists fs "/a");
  Alcotest.(check (option string)) "contents" (Some "hello")
    (Fs.contents fs "/a");
  let f = Fs.ensure fs "/a" in
  check_str "read_at middle" "ell" (Fs.read_at f ~pos:1 ~len:3);
  check_str "read_at past end" "" (Fs.read_at f ~pos:99 ~len:3);
  check_str "read_at clamped" "lo" (Fs.read_at f ~pos:3 ~len:99)

let test_fs_write_grow () =
  let fs = Fs.create () in
  let f = Fs.ensure fs "/w" in
  Fs.write_at f ~pos:0 "abc";
  Fs.write_at f ~pos:5 "xy";  (* gap zero-filled *)
  check_int "grown" 7 (Fs.size f);
  check_str "gap zeroed" "abc\000\000xy"
    (Fs.read_at f ~pos:0 ~len:7);
  Fs.truncate f;
  check_int "truncated" 0 (Fs.size f)

let test_fs_image_preserved () =
  let fs = Fs.create () in
  Fs.install_image fs (Guest.Common.trivial "/bin/t");
  Fs.install fs "/bin/t" "bytes-on-disk";
  check "image kept across install" true (Fs.image_of fs "/bin/t" <> None);
  Alcotest.(check (option string)) "data updated" (Some "bytes-on-disk")
    (Fs.contents fs "/bin/t")

let test_fs_paths_sorted () =
  let fs = Fs.create () in
  Fs.install fs "/b" "";
  Fs.install fs "/a" "";
  Alcotest.(check (list string)) "sorted" [ "/a"; "/b" ] (Fs.paths fs)

(* ------------------------------------------------------------------ *)
(* Network                                                             *)

let test_net_dns () =
  let net = Net.create () in
  Net.add_host net "h" 0x0A000001;
  check "resolve" true (Net.resolve net "h" = Some 0x0A000001);
  check "unknown" true (Net.resolve net "ghost" = None);
  check_str "reverse" "h" (Net.host_of_ip net 0x0A000001);
  check_str "dotted quad for unknown" "16.0.0.10"
    (Net.host_of_ip net 0x0A000010)

let test_net_hosts_db_format () =
  let net = Net.create () in
  Net.add_host net "ab" 0x01020304;
  let db = Net.hosts_db net in
  check_int "record is 20 bytes" 20 (String.length db);
  check_str "name padded" "ab" (String.sub db 0 2);
  check_int "pad byte" 0 (Char.code db.[2]);
  check_int "ip little-endian" 4 (Char.code db.[16])

let test_net_connect_and_actor () =
  let net = Net.create () in
  Net.add_host net "srv" 0x0A000002;
  Net.add_server net ~host:"srv" ~port:80
    { actor_host = "srv"; script = [ Net.Send "hi"; Net.Expect 3;
                                     Net.Send "bye"; Net.Close ] };
  let sock = Net.new_socket net in
  (match Net.connect net sock ~ip:0x0A000002 ~port:80 with
   | None -> Alcotest.fail "connect refused"
   | Some conn ->
     check_str "peer name" "srv:80" conn.peer;
     check_str "eager send" "hi" (Net.guest_recv conn 10);
     check_str "nothing yet" "" (Net.guest_recv conn 10);
     check "not closed yet" false conn.remote_closed;
     Net.guest_send net conn "ack";  (* satisfies Expect 3 *)
     check_str "scripted reply" "bye" (Net.guest_recv conn 10);
     check "closed after script" true conn.remote_closed)

let test_net_connect_refused () =
  let net = Net.create () in
  let sock = Net.new_socket net in
  check "no server" true (Net.connect net sock ~ip:1 ~port:2 = None)

let test_net_accept_queue () =
  let net = Net.create () in
  Net.add_incoming net ~port:9 { actor_host = "a"; script = [] };
  Net.add_incoming net ~port:9 { actor_host = "b"; script = [] };
  let sock = Net.new_socket net in
  sock.state <- Net.Listening 9;
  (match Net.accept net sock with
   | Some c -> check "first client first" true
                 (String.length c.peer >= 1 && c.peer.[0] = 'a')
   | None -> Alcotest.fail "no pending client");
  (match Net.accept net sock with
   | Some c -> check "second client next" true (c.peer.[0] = 'b')
   | None -> Alcotest.fail "second client missing");
  check "queue drained" true (Net.accept net sock = None)

let test_net_partial_recv () =
  let net = Net.create () in
  Net.add_host net "srv" 5;
  Net.add_server net ~host:"srv" ~port:1
    { actor_host = "srv"; script = [ Net.Send "abcdef" ] };
  let sock = Net.new_socket net in
  match Net.connect net sock ~ip:5 ~port:1 with
  | None -> Alcotest.fail "refused"
  | Some conn ->
    check_str "first chunk" "abc" (Net.guest_recv conn 3);
    check_str "rest" "def" (Net.guest_recv conn 10)

(* ------------------------------------------------------------------ *)
(* ABI                                                                 *)

let test_sockaddr_roundtrip () =
  let buf = Bytes.make 8 '\000' in
  Abi.write_sockaddr
    (fun a v -> Bytes.set buf a (Char.chr v))
    0 ~ip:0x0A0B0C0D ~port:4242;
  let read_word a = Int32.to_int (Bytes.get_int32_le buf a) land 0xFFFFFFFF in
  let ip, port = Abi.read_sockaddr read_word 0 in
  check_int "ip round trip" 0x0A0B0C0D ip;
  check_int "port round trip" 4242 port

let test_syscall_names () =
  check_str "execve" "SYS_execve" (Abi.syscall_name Abi.sys_execve);
  check_str "unknown" "SYS_999" (Abi.syscall_name 999)

(* ------------------------------------------------------------------ *)
(* Processes                                                           *)

let test_process_fds () =
  let p =
    Process.with_std_fds
      (Process.create ~pid:1 ~machine:(Vm.Machine.create ())
         ~exe_path:"/x" ~argv:[])
  in
  check "stdin" true (Process.fd p 0 = Some Process.Std_in);
  let fd = Process.alloc_fd p (Fd_file { path = "/f"; offset = 0; flags = 0 })
  in
  check_int "first alloc is 3" 3 fd;
  check "close" true (Process.close_fd p fd);
  check "double close" false (Process.close_fd p fd)

let test_process_fork_fds_independent () =
  let mk () =
    Process.create ~pid:1 ~machine:(Vm.Machine.create ()) ~exe_path:"/x"
      ~argv:[]
  in
  let parent = mk () and child = mk () in
  let _ =
    Process.alloc_fd parent (Fd_file { path = "/f"; offset = 5; flags = 0 })
  in
  Process.copy_fds ~src:parent ~dst:child;
  (match Process.fd child 3 with
   | Some (Fd_file fr) ->
     fr.offset <- 99;
     (match Process.fd parent 3 with
      | Some (Fd_file pr) -> check_int "offsets independent" 5 pr.offset
      | _ -> Alcotest.fail "parent fd lost")
   | _ -> Alcotest.fail "child fd missing")

(* ------------------------------------------------------------------ *)
(* Kernel end-to-end (guest programs)                                  *)

let world ?(programs = []) ?(files = []) ?(user_input = []) ?incoming ()
  =
  let fs = Fs.create () in
  List.iter (Fs.install_image fs) programs;
  List.iter (fun (p, d) -> Fs.install fs p d) files;
  let net = Net.create () in
  Net.add_host net "LocalHost" 0x0100007F;
  (match incoming with
   | Some (port, actor) -> Net.add_incoming net ~port actor
   | None -> ());
  Kernel.create ~fs ~net ~user_input ()

let run_main k path argv =
  (match Kernel.spawn k ~path ~argv with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  Kernel.run k ~max_ticks:100_000

let simple_exe body =
  let u = Asm.create ~path:"/bin/t" ~kind:Binary.Image.Executable
      ~base:0x1000 ()
  in
  Guest.Runtime.prologue u;
  Asm.label u "_start";
  body u;
  Guest.Runtime.sys_exit u 0;
  Asm.hlt u;
  Asm.finalize u

let test_kernel_exit_code () =
  let exe = simple_exe (fun u -> Guest.Runtime.sys_exit u 7) in
  let k = world ~programs:[ exe ] () in
  let r = run_main k "/bin/t" [ "/bin/t" ] in
  match r.rep_final with
  | [ (_, _, Process.Exited 7) ] -> ()
  | _ -> Alcotest.failf "bad report: %a" Kernel.pp_report r

let test_kernel_console () =
  let exe = simple_exe (fun u -> Guest.Runtime.print u "m" "out!") in
  let k = world ~programs:[ exe ] () in
  let r = run_main k "/bin/t" [ "/bin/t" ] in
  check_str "console captured" "out!" r.rep_console

let test_kernel_file_write () =
  let exe =
    simple_exe (fun u ->
        Asm.asciz u "name" "/out.txt";
        Asm.asciz u "data" "persisted";
        Guest.Runtime.sys_creat u ~path:(Asm.lbl "name");
        Asm.movl u Asm.esi Asm.eax;
        Guest.Runtime.sys_write u ~fd:Asm.esi ~buf:(Asm.lbl "data")
          ~len:(Asm.imm 9);
        Guest.Runtime.sys_close u ~fd:Asm.esi)
  in
  let k = world ~programs:[ exe ] () in
  ignore (run_main k "/bin/t" [ "/bin/t" ]);
  Alcotest.(check (option string)) "file persisted" (Some "persisted")
    (Fs.contents (Kernel.fs k) "/out.txt")

let test_kernel_stdin_script () =
  let exe =
    simple_exe (fun u ->
        Guest.Runtime.sys_read u ~fd:(Asm.imm 0) ~buf:(Asm.lbl "__buf")
          ~len:(Asm.imm 4);
        Guest.Runtime.sys_write u ~fd:(Asm.imm 1) ~buf:(Asm.lbl "__buf")
          ~len:Asm.eax;
        Guest.Runtime.sys_read u ~fd:(Asm.imm 0) ~buf:(Asm.lbl "__buf")
          ~len:(Asm.imm 16);
        Guest.Runtime.sys_write u ~fd:(Asm.imm 1) ~buf:(Asm.lbl "__buf")
          ~len:Asm.eax)
  in
  let k = world ~programs:[ exe ] ~user_input:[ "abcdef"; "gh" ] () in
  let r = run_main k "/bin/t" [ "/bin/t" ] in
  (* first read takes 4 of the first chunk; the second read gets only
     the remainder of that chunk (reads stop at chunk boundaries) *)
  check_str "chunked stdin" "abcdef" r.rep_console

let test_kernel_open_enoent () =
  let exe =
    simple_exe (fun u ->
        Asm.asciz u "name" "/missing";
        Guest.Runtime.sys_open u ~path:(Asm.lbl "name") ~flags:0;
        (* exit code = eax & 0xff so we can observe the errno *)
        Asm.movl u Asm.ebx Asm.eax;
        Asm.movl u Asm.eax (Asm.imm Abi.sys_exit);
        Asm.int80 u)
  in
  let k = world ~programs:[ exe ] () in
  let r = run_main k "/bin/t" [ "/bin/t" ] in
  match r.rep_final with
  | [ (_, _, Process.Exited code) ] ->
    check_int "negative errno" ((-Abi.enoent) land 0xFFFFFFFF) code
  | _ -> Alcotest.fail "no exit"

let test_kernel_append_flag () =
  let exe =
    simple_exe (fun u ->
        Asm.asciz u "name" "/log";
        Asm.asciz u "data" "+x";
        Guest.Runtime.sys_open u ~path:(Asm.lbl "name")
          ~flags:Abi.(o_wronly lor o_append);
        Asm.movl u Asm.esi Asm.eax;
        Guest.Runtime.sys_write u ~fd:Asm.esi ~buf:(Asm.lbl "data")
          ~len:(Asm.imm 2))
  in
  let k = world ~programs:[ exe ] ~files:[ "/log", "seed" ] () in
  ignore (run_main k "/bin/t" [ "/bin/t" ]);
  Alcotest.(check (option string)) "appended" (Some "seed+x")
    (Fs.contents (Kernel.fs k) "/log")

let test_kernel_fork_both_run () =
  let exe =
    simple_exe (fun u ->
        Guest.Runtime.sys_fork u;
        Asm.testl u Asm.eax Asm.eax;
        Asm.jz u "child";
        Guest.Runtime.print u "p" "P";
        Guest.Runtime.sys_exit u 0;
        Asm.label u "child";
        Guest.Runtime.print u "c" "C";
        Guest.Runtime.sys_exit u 0)
  in
  let k = world ~programs:[ exe ] () in
  let r = run_main k "/bin/t" [ "/bin/t" ] in
  check_int "two processes" 2 (List.length r.rep_final);
  check_int "one clone" 1 r.rep_clones;
  check "both wrote" true
    (Astring.String.is_infix ~affix:"P" r.rep_console
     && Astring.String.is_infix ~affix:"C" r.rep_console)

let test_kernel_fork_limit () =
  let exe =
    simple_exe (fun u ->
        Asm.label u "loop";
        Guest.Runtime.sys_fork u;
        Asm.testl u Asm.eax Asm.eax;
        Asm.js u "done";  (* EAGAIN -> negative *)
        Asm.jnz u "loop";  (* parent keeps forking *)
        Guest.Runtime.sys_sleep u 2000;  (* children linger *)
        Guest.Runtime.sys_exit u 0;
        Asm.label u "done";
        Guest.Runtime.print u "m" "full")
  in
  let fs = Fs.create () in
  Fs.install_image fs exe;
  let k =
    Kernel.create ~max_procs:5 ~fs ~net:(Net.create ()) ()
  in
  let r = run_main k "/bin/t" [ "/bin/t" ] in
  check "fork eventually fails" true
    (Astring.String.is_infix ~affix:"full" r.rep_console);
  check "bounded" true (r.rep_max_live <= 5)

let test_kernel_execve () =
  let exe =
    simple_exe (fun u ->
        Asm.asciz u "prog" "/bin/next";
        Guest.Runtime.sys_execve u ~path:(Asm.lbl "prog") ())
  in
  let next = Guest.Common.trivial ~output:"replaced" "/bin/next" in
  let k = world ~programs:[ exe; next ] () in
  let r = run_main k "/bin/t" [ "/bin/t" ] in
  check_str "new image ran" "replaced" r.rep_console;
  (match r.rep_final with
   | [ (_, exe_path, _) ] -> check_str "exe path updated" "/bin/next" exe_path
   | _ -> Alcotest.fail "process table wrong")

(* Neither program carries a relocation, so both are mapped as
   installed: the process's segment is the image's own text array, at
   spawn and after the exec. *)
let test_kernel_maps_without_copy () =
  let exe =
    simple_exe (fun u ->
        Asm.asciz u "prog" "/bin/next";
        Guest.Runtime.sys_execve u ~path:(Asm.lbl "prog") ())
  in
  let next = Guest.Common.trivial ~output:"replaced" "/bin/next" in
  let k = world ~programs:[ exe; next ] () in
  let mapped (p : Process.t) (img : Binary.Image.t) =
    match Vm.Machine.segment_at p.machine img.entry with
    | Some seg -> seg.seg_insns == img.text
    | None -> false
  in
  match Kernel.spawn k ~path:"/bin/t" ~argv:[ "/bin/t" ] with
  | Error e -> Alcotest.fail e
  | Ok p ->
    check "spawned image mapped without a copy" true (mapped p exe);
    let r = Kernel.run k ~max_ticks:100_000 in
    check_str "exec'd image ran" "replaced" r.rep_console;
    check "exec'd image mapped without a copy" true (mapped p next)

let test_kernel_execve_enoexec () =
  let exe =
    simple_exe (fun u ->
        Asm.asciz u "prog" "/plain.txt";
        Guest.Runtime.sys_execve u ~path:(Asm.lbl "prog") ();
        Asm.movl u Asm.ebx Asm.eax;
        Asm.movl u Asm.eax (Asm.imm Abi.sys_exit);
        Asm.int80 u)
  in
  let k = world ~programs:[ exe ] ~files:[ "/plain.txt", "not code" ] () in
  let r = run_main k "/bin/t" [ "/bin/t" ] in
  match r.rep_final with
  | [ (_, _, Process.Exited code) ] ->
    check_int "ENOEXEC" ((-Abi.enoexec) land 0xFFFFFFFF) code
  | _ -> Alcotest.fail "no exit"

let test_kernel_time_getpid () =
  let exe =
    simple_exe (fun u ->
        Asm.movl u Asm.eax (Asm.imm Abi.sys_getpid);
        Asm.int80 u;
        Asm.movl u Asm.ebx Asm.eax;
        Asm.movl u Asm.eax (Asm.imm Abi.sys_exit);
        Asm.int80 u)
  in
  let k = world ~programs:[ exe ] () in
  let r = run_main k "/bin/t" [ "/bin/t" ] in
  match r.rep_final with
  | [ (pid, _, Process.Exited code) ] -> check_int "getpid" pid code
  | _ -> Alcotest.fail "no exit"

let test_kernel_sleep_ordering () =
  let exe =
    simple_exe (fun u ->
        Guest.Runtime.sys_fork u;
        Asm.testl u Asm.eax Asm.eax;
        Asm.jz u "child";
        Guest.Runtime.sys_sleep u 5_000;
        Guest.Runtime.print u "p" "late";
        Guest.Runtime.sys_exit u 0;
        Asm.label u "child";
        Guest.Runtime.print u "c" "early";
        Guest.Runtime.sys_exit u 0)
  in
  let k = world ~programs:[ exe ] () in
  let r = run_main k "/bin/t" [ "/bin/t" ] in
  check_str "sleeper finishes last" "earlylate" r.rep_console

let test_kernel_server_accept () =
  let exe =
    simple_exe (fun u ->
        Guest.Runtime.static_sockaddr u "sa" ~ip:0x0100007F ~port:7777;
        Guest.Runtime.sys_socket u;
        Asm.movl u Asm.esi Asm.eax;
        Guest.Runtime.sys_bind u ~fd:Asm.esi ~addr:(Asm.lbl "sa");
        Guest.Runtime.sys_listen u ~fd:Asm.esi;
        Guest.Runtime.sys_accept u ~fd:Asm.esi;
        Asm.movl u Asm.edi Asm.eax;
        Guest.Runtime.sys_recv u ~fd:Asm.edi ~buf:(Asm.lbl "__buf")
          ~len:(Asm.imm 16);
        Guest.Runtime.sys_write u ~fd:(Asm.imm 1) ~buf:(Asm.lbl "__buf")
          ~len:Asm.eax)
  in
  let k =
    world ~programs:[ exe ]
      ~incoming:(7777, { Net.actor_host = "cli";
                         script = [ Net.Send "ping" ] })
      ()
  in
  let r = run_main k "/bin/t" [ "/bin/t" ] in
  check_str "server echoed client bytes" "ping" r.rep_console

let test_kernel_deadlock_reaped () =
  let exe =
    simple_exe (fun u ->
        (* recv on a listening socket that nobody will ever dial *)
        Guest.Runtime.static_sockaddr u "sa" ~ip:0x0100007F ~port:1;
        Guest.Runtime.sys_socket u;
        Asm.movl u Asm.esi Asm.eax;
        Guest.Runtime.sys_bind u ~fd:Asm.esi ~addr:(Asm.lbl "sa");
        Guest.Runtime.sys_listen u ~fd:Asm.esi;
        Guest.Runtime.sys_accept u ~fd:Asm.esi)
  in
  let k = world ~programs:[ exe ] () in
  let r = run_main k "/bin/t" [ "/bin/t" ] in
  match r.rep_final with
  | [ (_, _, Process.Killed _) ] -> ()
  | _ -> Alcotest.fail "blocked-forever process should be reaped"

let test_kernel_unknown_syscall () =
  let exe =
    simple_exe (fun u ->
        Asm.movl u Asm.eax (Asm.imm 777);
        Asm.int80 u;
        Asm.movl u Asm.ebx Asm.eax;
        Asm.movl u Asm.eax (Asm.imm Abi.sys_exit);
        Asm.int80 u)
  in
  let k = world ~programs:[ exe ] () in
  let r = run_main k "/bin/t" [ "/bin/t" ] in
  match r.rep_final with
  | [ (_, _, Process.Exited code) ] ->
    check_int "ENOSYS" ((-38) land 0xFFFFFFFF) code
  | _ -> Alcotest.fail "no exit"

let test_kernel_dup () =
  let exe =
    simple_exe (fun u ->
        Asm.asciz u "name" "/src";
        Guest.Runtime.sys_open u ~path:(Asm.lbl "name") ~flags:0;
        Asm.movl u Asm.esi Asm.eax;
        (* read 2 bytes, dup, read 2 more on the dup: offsets are
           independent in our simplified dup *)
        Guest.Runtime.sys_read u ~fd:Asm.esi ~buf:(Asm.lbl "__buf")
          ~len:(Asm.imm 2);
        Asm.movl u Asm.ebx Asm.esi;
        Asm.movl u Asm.eax (Asm.imm Abi.sys_dup);
        Asm.int80 u;
        Asm.movl u Asm.edi Asm.eax;
        Guest.Runtime.sys_read u ~fd:Asm.edi ~buf:(Asm.lbl "__buf")
          ~len:(Asm.imm 2);
        Guest.Runtime.sys_write u ~fd:(Asm.imm 1) ~buf:(Asm.lbl "__buf")
          ~len:(Asm.imm 2))
  in
  let k = world ~programs:[ exe ] ~files:[ "/src", "abcdef" ] () in
  let r = run_main k "/bin/t" [ "/bin/t" ] in
  check_str "dup kept the offset" "cd" r.rep_console

let test_kernel_execve_argv_passing () =
  (* argv pointers passed to execve become the new process's argv *)
  let launcher =
    simple_exe (fun u ->
        Asm.asciz u "prog" "/bin/echoarg";
        Asm.asciz u "arg1" "payload-arg";
        (* argv array: [prog; arg1; NULL] *)
        Asm.movl u (Asm.mlbl "__scratch") (Asm.lbl "prog");
        Asm.movl u (Asm.mlbl ~off:4 "__scratch") (Asm.lbl "arg1");
        Asm.movl u (Asm.mlbl ~off:8 "__scratch") (Asm.imm 0);
        Guest.Runtime.sys_execve u ~path:(Asm.lbl "prog")
          ~argv:(Asm.lbl "__scratch") ())
  in
  let echoarg =
    let u = Asm.create ~path:"/bin/echoarg" ~kind:Binary.Image.Executable
        ~base:0x1000 ()
    in
    Guest.Runtime.prologue u;
    Asm.space u "argp" 4;
    Asm.label u "_start";
    Guest.Runtime.save_argv u 1 "argp";
    Asm.movl u Asm.esi (Asm.mlbl "argp");
    Guest.Runtime.strlen u ~id:"a" ~src:ESI ~dst:EDX;
    Guest.Runtime.sys_write u ~fd:(Asm.imm 1) ~buf:(Asm.mlbl "argp")
      ~len:Asm.edx;
    Guest.Runtime.sys_exit u 0;
    Asm.hlt u;
    Asm.finalize u
  in
  let k = world ~programs:[ launcher; echoarg ] () in
  let r = run_main k "/bin/t" [ "/bin/t" ] in
  check_str "argv crossed execve" "payload-arg" r.rep_console

let test_kernel_env_on_stack () =
  let exe =
    simple_exe (fun u ->
        Asm.space u "envp" 4;
        Guest.Runtime.save_env u 1 "envp";
        Asm.movl u Asm.esi (Asm.mlbl "envp");
        Guest.Runtime.strlen u ~id:"e" ~src:ESI ~dst:EDX;
        Guest.Runtime.sys_write u ~fd:(Asm.imm 1) ~buf:(Asm.mlbl "envp")
          ~len:Asm.edx)
  in
  let fs = Fs.create () in
  Fs.install_image fs exe;
  let k = Kernel.create ~fs ~net:(Net.create ()) () in
  (match Kernel.spawn ~env:[ "A=1"; "B=two" ] k ~path:"/bin/t"
           ~argv:[ "/bin/t" ]
   with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  let r = Kernel.run k ~max_ticks:50_000 in
  check_str "env[1] readable" "B=two" r.rep_console

let test_kernel_close_invalidates_socket () =
  let exe =
    simple_exe (fun u ->
        Guest.Runtime.static_sockaddr u "sa" ~ip:0x0100007F ~port:70;
        Guest.Runtime.sys_socket u;
        Asm.movl u Asm.esi Asm.eax;
        Guest.Runtime.sys_close u ~fd:Asm.esi;
        (* connect on the closed fd must fail with EBADF *)
        Guest.Runtime.sys_connect u ~fd:Asm.esi ~addr:(Asm.lbl "sa");
        Asm.movl u Asm.ebx Asm.eax;
        Asm.movl u Asm.eax (Asm.imm Abi.sys_exit);
        Asm.int80 u)
  in
  let k = world ~programs:[ exe ] () in
  let r = run_main k "/bin/t" [ "/bin/t" ] in
  match r.rep_final with
  | [ (_, _, Process.Exited code) ] ->
    check_int "EBADF after close" ((-Abi.ebadf) land 0xFFFFFFFF) code
  | _ -> Alcotest.fail "no exit"

let test_net_listen_unbound () =
  let exe =
    simple_exe (fun u ->
        Guest.Runtime.sys_socket u;
        Asm.movl u Asm.esi Asm.eax;
        (* listen without bind must fail with EINVAL *)
        Guest.Runtime.sys_listen u ~fd:Asm.esi;
        Asm.movl u Asm.ebx Asm.eax;
        Asm.movl u Asm.eax (Asm.imm Abi.sys_exit);
        Asm.int80 u)
  in
  let k = world ~programs:[ exe ] () in
  let r = run_main k "/bin/t" [ "/bin/t" ] in
  match r.rep_final with
  | [ (_, _, Process.Exited code) ] ->
    check_int "EINVAL" ((-Abi.einval) land 0xFFFFFFFF) code
  | _ -> Alcotest.fail "no exit"

let test_net_recv_eof_after_close () =
  (* the remote sends then closes: recv drains the data, then returns 0 *)
  let exe =
    simple_exe (fun u ->
        Guest.Runtime.static_sockaddr u "sa" ~ip:0x0A000001 ~port:80;
        Guest.Runtime.sys_socket u;
        Asm.movl u Asm.esi Asm.eax;
        Guest.Runtime.sys_connect u ~fd:Asm.esi ~addr:(Asm.lbl "sa");
        Guest.Runtime.sys_recv u ~fd:Asm.esi ~buf:(Asm.lbl "__buf")
          ~len:(Asm.imm 32);
        Guest.Runtime.sys_write u ~fd:(Asm.imm 1) ~buf:(Asm.lbl "__buf")
          ~len:Asm.eax;
        (* second recv: remote closed, EOF *)
        Guest.Runtime.sys_recv u ~fd:Asm.esi ~buf:(Asm.lbl "__buf")
          ~len:(Asm.imm 32);
        Asm.movl u Asm.ebx Asm.eax;
        Asm.movl u Asm.eax (Asm.imm Abi.sys_exit);
        Asm.int80 u)
  in
  let fs = Fs.create () in
  Fs.install_image fs exe;
  let net = Net.create () in
  Net.add_host net "srv" 0x0A000001;
  Net.add_server net ~host:"srv" ~port:80
    { actor_host = "srv"; script = [ Net.Send "bye"; Net.Close ] };
  let k = Kernel.create ~fs ~net () in
  let r = run_main k "/bin/t" [ "/bin/t" ] in
  check_str "data drained first" "bye" r.rep_console;
  match r.rep_final with
  | [ (_, _, Process.Exited 0) ] -> ()
  | _ -> Alcotest.fail "recv after close should return 0"

let test_net_connect_refused_errno () =
  let exe =
    simple_exe (fun u ->
        Guest.Runtime.static_sockaddr u "sa" ~ip:0x0A000099 ~port:9;
        Guest.Runtime.sys_socket u;
        Asm.movl u Asm.esi Asm.eax;
        Guest.Runtime.sys_connect u ~fd:Asm.esi ~addr:(Asm.lbl "sa");
        Asm.movl u Asm.ebx Asm.eax;
        Asm.movl u Asm.eax (Asm.imm Abi.sys_exit);
        Asm.int80 u)
  in
  let k = world ~programs:[ exe ] () in
  let r = run_main k "/bin/t" [ "/bin/t" ] in
  match r.rep_final with
  | [ (_, _, Process.Exited code) ] ->
    check_int "ECONNREFUSED" ((-Abi.econnrefused) land 0xFFFFFFFF) code
  | _ -> Alcotest.fail "no exit"

(* ------------------------------------------------------------------ *)
(* Syscall error paths                                                 *)

(* Run [body] and exit with eax's low byte, so the test can observe a
   syscall's (negative) errno in the exit code. *)
let errno_exe body =
  simple_exe (fun u ->
      body u;
      Asm.movl u Asm.ebx Asm.eax;
      Asm.movl u Asm.eax (Asm.imm Abi.sys_exit);
      Asm.int80 u)

let errno_of_run ?(files = []) ?fault exe =
  let k =
    match fault with
    | None -> world ~programs:[ exe ] ~files ()
    | Some fault ->
      let fs = Fs.create () in
      Fs.install_image fs exe;
      List.iter (fun (p, d) -> Fs.install fs p d) files;
      let net = Net.create () in
      Net.add_host net "LocalHost" 0x0100007F;
      Kernel.create ~fs ~net ~fault ()
  in
  let r = run_main k "/bin/t" [ "/bin/t" ] in
  match r.rep_final with
  | [ (_, _, Process.Exited code) ] -> code
  | _ -> Alcotest.fail "no clean exit"

let check_errno name e code = check_int name ((-e) land 0xFFFFFFFF) code

let test_kernel_read_after_close () =
  let exe =
    errno_exe (fun u ->
        Asm.asciz u "name" "/f";
        Guest.Runtime.sys_open u ~path:(Asm.lbl "name") ~flags:0;
        Asm.movl u Asm.esi Asm.eax;
        Guest.Runtime.sys_close u ~fd:Asm.esi;
        Guest.Runtime.sys_read u ~fd:Asm.esi ~buf:(Asm.lbl "__buf")
          ~len:(Asm.imm 4))
  in
  check_errno "read on closed fd" Abi.ebadf
    (errno_of_run ~files:[ "/f", "data" ] exe)

let test_kernel_double_close () =
  let exe =
    errno_exe (fun u ->
        Asm.asciz u "name" "/f";
        Guest.Runtime.sys_open u ~path:(Asm.lbl "name") ~flags:0;
        Asm.movl u Asm.esi Asm.eax;
        Guest.Runtime.sys_close u ~fd:Asm.esi;
        Guest.Runtime.sys_close u ~fd:Asm.esi)
  in
  check_errno "second close" Abi.ebadf
    (errno_of_run ~files:[ "/f", "data" ] exe)

let test_kernel_read_on_wronly () =
  let exe =
    errno_exe (fun u ->
        Asm.asciz u "name" "/out";
        Guest.Runtime.sys_creat u ~path:(Asm.lbl "name");
        Asm.movl u Asm.esi Asm.eax;
        Guest.Runtime.sys_read u ~fd:Asm.esi ~buf:(Asm.lbl "__buf")
          ~len:(Asm.imm 4))
  in
  check_errno "read on write-only fd" Abi.ebadf (errno_of_run exe)

let test_kernel_write_on_rdonly () =
  let exe =
    errno_exe (fun u ->
        Asm.asciz u "name" "/f";
        Guest.Runtime.sys_open u ~path:(Asm.lbl "name") ~flags:0;
        Asm.movl u Asm.esi Asm.eax;
        Guest.Runtime.sys_write u ~fd:Asm.esi ~buf:(Asm.lbl "name")
          ~len:(Asm.imm 2))
  in
  check_errno "write on read-only fd" Abi.ebadf
    (errno_of_run ~files:[ "/f", "data" ] exe)

let test_kernel_dup_bad_fd () =
  let exe =
    errno_exe (fun u ->
        Asm.movl u Asm.ebx (Asm.imm 99);
        Asm.movl u Asm.eax (Asm.imm Abi.sys_dup);
        Asm.int80 u)
  in
  check_errno "dup of bad fd" Abi.ebadf (errno_of_run exe)

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

let plan spec =
  match Fault.parse spec with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let test_fault_open_enoent () =
  (* /f exists, but the plan makes its open fail *)
  let exe =
    errno_exe (fun u ->
        Asm.asciz u "name" "/f";
        Guest.Runtime.sys_open u ~path:(Asm.lbl "name") ~flags:0)
  in
  check_errno "injected ENOENT" Abi.enoent
    (errno_of_run ~files:[ "/f", "data" ] ~fault:(plan "SYS_open@/f=enoent")
       exe)

let test_fault_nth_occurrence () =
  (* only the second open of the same path is faulted *)
  let exe =
    errno_exe (fun u ->
        Asm.asciz u "name" "/f";
        Guest.Runtime.sys_open u ~path:(Asm.lbl "name") ~flags:0;
        Asm.movl u Asm.esi Asm.eax;  (* first open must succeed *)
        Guest.Runtime.sys_open u ~path:(Asm.lbl "name") ~flags:0)
  in
  check_errno "second open faulted" Abi.eio
    (errno_of_run ~files:[ "/f", "data" ] ~fault:(plan "SYS_open#2=eio") exe)

let test_fault_short_read () =
  let exe =
    simple_exe (fun u ->
        Asm.asciz u "name" "/f";
        Guest.Runtime.sys_open u ~path:(Asm.lbl "name") ~flags:0;
        Asm.movl u Asm.esi Asm.eax;
        Guest.Runtime.sys_read u ~fd:Asm.esi ~buf:(Asm.lbl "__buf")
          ~len:(Asm.imm 6);
        Guest.Runtime.sys_write u ~fd:(Asm.imm 1) ~buf:(Asm.lbl "__buf")
          ~len:Asm.eax)
  in
  let fs = Fs.create () in
  Fs.install_image fs exe;
  Fs.install fs "/f" "abcdef";
  let net = Net.create () in
  Net.add_host net "LocalHost" 0x0100007F;
  let k = Kernel.create ~fs ~net ~fault:(plan "SYS_read@/f=short") () in
  let r = run_main k "/bin/t" [ "/bin/t" ] in
  (* len 6 truncated to 3: the guest echoes only what the read returned *)
  check_str "short read truncates" "abc" r.rep_console

let test_fault_stall_not_livelock () =
  (* a stalled read blocks for one scheduler round, then completes *)
  let exe =
    simple_exe (fun u ->
        Asm.asciz u "name" "/f";
        Guest.Runtime.sys_open u ~path:(Asm.lbl "name") ~flags:0;
        Asm.movl u Asm.esi Asm.eax;
        Guest.Runtime.sys_read u ~fd:Asm.esi ~buf:(Asm.lbl "__buf")
          ~len:(Asm.imm 4);
        Guest.Runtime.sys_write u ~fd:(Asm.imm 1) ~buf:(Asm.lbl "__buf")
          ~len:Asm.eax)
  in
  let fs = Fs.create () in
  Fs.install_image fs exe;
  Fs.install fs "/f" "data";
  let net = Net.create () in
  Net.add_host net "LocalHost" 0x0100007F;
  let k = Kernel.create ~fs ~net ~fault:(plan "SYS_read@/f=stall") () in
  let r = run_main k "/bin/t" [ "/bin/t" ] in
  check_str "stalled read completed" "data" r.rep_console

let test_fault_decisions_deterministic () =
  let probe () =
    let st = Fault.start (Fault.seeded 7) in
    List.map
      (fun (call, res, sock) -> Fault.decide st ~call ~res ~sock)
      [ "SYS_open", "/etc/passwd", false; "SYS_open", "/etc/passwd", false;
        "SYS_read", "stdin", false; "SYS_read", "peer:80", true;
        "SYS_clone", "", false; "SYS_open", "/tmp/x", false ]
  in
  check "same seed, same decisions" true (probe () = probe ())

let suite =
  [ Alcotest.test_case "fs basics" `Quick test_fs_basics;
    Alcotest.test_case "fs write grows files" `Quick test_fs_write_grow;
    Alcotest.test_case "fs image preserved by install" `Quick
      test_fs_image_preserved;
    Alcotest.test_case "fs paths sorted" `Quick test_fs_paths_sorted;
    Alcotest.test_case "net dns" `Quick test_net_dns;
    Alcotest.test_case "net hosts.db format" `Quick
      test_net_hosts_db_format;
    Alcotest.test_case "net connect and actor script" `Quick
      test_net_connect_and_actor;
    Alcotest.test_case "net connect refused" `Quick
      test_net_connect_refused;
    Alcotest.test_case "net accept queue order" `Quick
      test_net_accept_queue;
    Alcotest.test_case "net partial recv" `Quick test_net_partial_recv;
    Alcotest.test_case "sockaddr round trip" `Quick
      test_sockaddr_roundtrip;
    Alcotest.test_case "syscall names" `Quick test_syscall_names;
    Alcotest.test_case "process fd table" `Quick test_process_fds;
    Alcotest.test_case "fork fd independence" `Quick
      test_process_fork_fds_independent;
    Alcotest.test_case "kernel exit code" `Quick test_kernel_exit_code;
    Alcotest.test_case "kernel console capture" `Quick
      test_kernel_console;
    Alcotest.test_case "kernel file write persists" `Quick
      test_kernel_file_write;
    Alcotest.test_case "kernel stdin scripting" `Quick
      test_kernel_stdin_script;
    Alcotest.test_case "kernel open ENOENT" `Quick
      test_kernel_open_enoent;
    Alcotest.test_case "kernel O_APPEND" `Quick test_kernel_append_flag;
    Alcotest.test_case "kernel fork runs both sides" `Quick
      test_kernel_fork_both_run;
    Alcotest.test_case "kernel fork limit (EAGAIN)" `Quick
      test_kernel_fork_limit;
    Alcotest.test_case "kernel execve replaces image" `Quick
      test_kernel_execve;
    Alcotest.test_case "kernel execve ENOEXEC" `Quick
      test_kernel_execve_enoexec;
    Alcotest.test_case "kernel maps images without a copy" `Quick
      test_kernel_maps_without_copy;
    Alcotest.test_case "kernel getpid" `Quick test_kernel_time_getpid;
    Alcotest.test_case "kernel sleep ordering" `Quick
      test_kernel_sleep_ordering;
    Alcotest.test_case "kernel server accept" `Quick
      test_kernel_server_accept;
    Alcotest.test_case "kernel deadlock reaped" `Quick
      test_kernel_deadlock_reaped;
    Alcotest.test_case "kernel unknown syscall" `Quick
      test_kernel_unknown_syscall;
    Alcotest.test_case "kernel dup" `Quick test_kernel_dup;
    Alcotest.test_case "kernel execve argv passing" `Quick
      test_kernel_execve_argv_passing;
    Alcotest.test_case "kernel env on initial stack" `Quick
      test_kernel_env_on_stack;
    Alcotest.test_case "kernel close invalidates socket" `Quick
      test_kernel_close_invalidates_socket;
    Alcotest.test_case "listen on unbound socket" `Quick
      test_net_listen_unbound;
    Alcotest.test_case "recv EOF after remote close" `Quick
      test_net_recv_eof_after_close;
    Alcotest.test_case "connect refused errno" `Quick
      test_net_connect_refused_errno;
    Alcotest.test_case "read after close (EBADF)" `Quick
      test_kernel_read_after_close;
    Alcotest.test_case "double close (EBADF)" `Quick
      test_kernel_double_close;
    Alcotest.test_case "read on write-only fd (EBADF)" `Quick
      test_kernel_read_on_wronly;
    Alcotest.test_case "write on read-only fd (EBADF)" `Quick
      test_kernel_write_on_rdonly;
    Alcotest.test_case "dup of bad fd (EBADF)" `Quick
      test_kernel_dup_bad_fd;
    Alcotest.test_case "fault: injected open ENOENT" `Quick
      test_fault_open_enoent;
    Alcotest.test_case "fault: nth occurrence" `Quick
      test_fault_nth_occurrence;
    Alcotest.test_case "fault: short read" `Quick test_fault_short_read;
    Alcotest.test_case "fault: stall completes" `Quick
      test_fault_stall_not_livelock;
    Alcotest.test_case "fault: seeded decisions deterministic" `Quick
      test_fault_decisions_deterministic ]
