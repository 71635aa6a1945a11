open Asm

let group = "table5"

(* One parent forks [n] children; each child loops, sleeping. *)
let loop_forker_exe =
  let u = create ~path:"/bin/loop_forker" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  label u "_start";
  movl u edi (imm 12);  (* children to spawn *)
  label u "spawn";
  Runtime.sys_fork u;
  testl u eax eax;
  jz u "child";
  decl u edi;
  jnz u "spawn";
  Runtime.sys_exit u 0;
  (* child: a bounded busy/sleep loop standing in for "infinite loop" *)
  label u "child";
  movl u esi (imm 5);
  label u "child_loop";
  Runtime.sys_sleep u 200;
  decl u esi;
  jnz u "child_loop";
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let loop_forker =
  Scenario.make ~name:"loop forker" ~group
    ~descr:"main thread forks 12 children that loop and sleep"
    ~expected:(Scenario.Malicious Secpert.Severity.Medium)
    (Hth.Engine.setup ~programs:[ loop_forker_exe ] ~max_ticks:100_000
       ~main:"/bin/loop_forker" ())

(* Every process forks in a loop: 2^4 process tree. *)
let tree_forker_exe =
  let u = create ~path:"/bin/tree_forker" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  label u "_start";
  movl u edi (imm 4);  (* tree depth *)
  label u "level";
  Runtime.sys_fork u;
  (* parent and child both continue the loop *)
  decl u edi;
  jnz u "level";
  Runtime.sys_sleep u 100;
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let tree_forker =
  Scenario.make ~name:"tree forker" ~group
    ~descr:"parent and child both keep forking (2^4 processes)"
    ~expected:(Scenario.Malicious Secpert.Severity.Medium)
    (Hth.Engine.setup ~programs:[ tree_forker_exe ] ~max_ticks:100_000
       ~main:"/bin/tree_forker" ())

let scenarios = [ loop_forker; tree_forker ]
