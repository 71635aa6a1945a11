open Asm

let exe ~iters =
  let u = create ~path:"/bin/perfwork" ~kind:Binary.Image.Executable
      ~base:Common.exe_base ()
  in
  Runtime.prologue u;
  asciz u "srcname" "/data/input.bin";
  asciz u "dstname" "/data/output.bin";
  space u "buf2" 64;
  space u "fd" 4;
  label u "_start";
  Runtime.sys_open u ~path:(lbl "srcname") ~flags:Osim.Abi.o_rdonly;
  movl u (mlbl "fd") eax;
  Runtime.sys_read u ~fd:(mlbl "fd") ~buf:(lbl "__buf") ~len:(imm 64);
  Runtime.sys_close u ~fd:(mlbl "fd");
  movl u edi (imm iters);
  label u "iter";
  (* copy __buf -> buf2, byte by byte, accumulating a checksum *)
  xorl u esi esi;
  xorl u edx edx;
  label u "copy";
  movb u eax (mlbl_base ESI "__buf");
  movb u (mlbl_base ESI "buf2") eax;
  addl u edx eax;
  xorl u edx (imm 0x5A);
  shll u edx (imm 1);
  andl u edx (imm 0xFFFF);
  incl u esi;
  cmpl u esi (imm 64);
  jl u "copy";
  decl u edi;
  jnz u "iter";
  (* write the transformed buffer out *)
  Runtime.sys_open u ~path:(lbl "dstname")
    ~flags:Osim.Abi.(o_creat lor o_wronly);
  movl u (mlbl "fd") eax;
  Runtime.sys_write u ~fd:(mlbl "fd") ~buf:(lbl "buf2") ~len:(imm 64);
  Runtime.sys_close u ~fd:(mlbl "fd");
  Runtime.sys_exit u 0;
  hlt u;
  finalize u

let scenario ~iters =
  Scenario.make ~name:(Fmt.str "perf-copy-%d" iters) ~group:"perf"
    ~descr:"instruction-dense copy/checksum kernel"
    ~expected:(Scenario.Malicious Secpert.Severity.Low)
    (Hth.Engine.setup
       ~programs:[ exe ~iters ]
       ~files:[ "/data/input.bin", String.make 64 'x' ]
       ~max_ticks:(200_000 + (700 * iters))
       ~main:"/bin/perfwork" ())
