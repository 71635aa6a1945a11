(* Unit and integration tests for Harrier: shadow state, data-flow
   propagation, BB frequency attribution, resource tracking, routine
   short-circuiting, and the assembled monitor. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sp = Taint.Tagset.make_space ()
let tag_of l = Taint.Tagset.of_list sp l
let user = Taint.Source.User_input
let file_a = Taint.Source.File "/a"
let bin_x = Taint.Source.Binary "/bin/x"

let tagset =
  Alcotest.testable Taint.Tagset.pp Taint.Tagset.equal

(* ------------------------------------------------------------------ *)
(* Shadow                                                              *)

let test_shadow_regs () =
  let s = Harrier.Shadow.create ~space:sp () in
  Alcotest.check tagset "initially empty" Taint.Tagset.empty
    (Harrier.Shadow.reg s EAX);
  Harrier.Shadow.set_reg s EAX (tag_of [ user ]);
  Alcotest.check tagset "set/get" (tag_of [ user ])
    (Harrier.Shadow.reg s EAX);
  Alcotest.check tagset "others untouched" Taint.Tagset.empty
    (Harrier.Shadow.reg s EBX)

let test_shadow_memory () =
  let s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shadow.set_byte s 100 (tag_of [ user ]);
  Harrier.Shadow.set_byte s 101 (tag_of [ file_a ]);
  Alcotest.check tagset "range unions" (tag_of [ user; file_a ])
    (Harrier.Shadow.range s 100 2);
  Harrier.Shadow.set_range s 100 2 Taint.Tagset.empty;
  check_int "empty tags are not stored" 0 (Harrier.Shadow.tagged_bytes s)

let test_shadow_clone () =
  let s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shadow.set_byte s 5 (tag_of [ user ]);
  let c = Harrier.Shadow.clone s in
  Harrier.Shadow.set_byte c 5 (tag_of [ bin_x ]);
  Alcotest.check tagset "original unchanged" (tag_of [ user ])
    (Harrier.Shadow.byte s 5)

(* Memory keeps 32-bit tag ids: ids past one and two bytes must read
   back as the same interned sets, through single bytes, page-straddling
   ranges and a clone. *)
let test_shadow_wide_ids () =
  let big = Taint.Tagset.make_space () in
  let tags =
    Array.init 70_000 (fun i ->
        Taint.Tagset.singleton big (Taint.Source.File ("/f" ^ string_of_int i)))
  in
  let small = tags.(0) and mid = tags.(300) and high = tags.(69_999) in
  check "one-byte id" true (Taint.Tagset.id small <= 255);
  check "two-byte id" true
    (Taint.Tagset.id mid > 255 && Taint.Tagset.id mid <= 65_535);
  check "id past 65535" true (Taint.Tagset.id high > 65_535);
  check "of_id inverts id" true
    (Taint.Tagset.of_id big (Taint.Tagset.id high) == high);
  let s = Harrier.Shadow.create ~space:big () in
  Harrier.Shadow.set_byte s 0x1FFF high;
  Harrier.Shadow.set_byte s 0x2000 small;
  Harrier.Shadow.set_range s 0x2FFC 8 mid;
  Harrier.Shadow.set_byte s 0x3001 high;
  let both = Taint.Tagset.union big mid high in
  let check_reads what s =
    check (what ^ ": byte") true (Harrier.Shadow.byte s 0x1FFF == high);
    check (what ^ ": small byte") true (Harrier.Shadow.byte s 0x2000 == small);
    check (what ^ ": edge pair") true
      (Harrier.Shadow.range s 0x1FFF 2 == Taint.Tagset.union big high small);
    check (what ^ ": range below the edge") true
      (Harrier.Shadow.range s 0x2FFC 4 == mid);
    check (what ^ ": range across the edge") true
      (Harrier.Shadow.range s 0x2FFC 8 == both);
    check_int (what ^ ": tagged bytes") 10 (Harrier.Shadow.tagged_bytes s)
  in
  check_reads "original" s;
  let c = Harrier.Shadow.clone s in
  check_reads "clone" c;
  Harrier.Shadow.set_range c 0x2FFC 8 high;
  check "clone store" true (Harrier.Shadow.range c 0x2FFC 8 == high);
  check_reads "original after clone store" s

(* Past the 1 MiB address space nothing is tagged: stores there
   allocate no page and never touch the page budget. *)
let test_shadow_out_of_space () =
  let s = Harrier.Shadow.create ~page_budget:1 ~space:sp () in
  let a = tag_of [ user ] and b = tag_of [ file_a ] in
  Harrier.Shadow.set_byte s 0x100000 a;
  Harrier.Shadow.set_range s 0x100010 64 a;
  Harrier.Shadow.set_range s 0x7FFF_FFF0 8 a;
  check_int "no page" 0 (Harrier.Shadow.live_pages s);
  check_int "no tagged byte" 0 (Harrier.Shadow.tagged_bytes s);
  check "budget untouched" false (Harrier.Shadow.degraded s);
  Harrier.Shadow.set_range s 0xFFFFE 4 b;
  check_int "one page" 1 (Harrier.Shadow.live_pages s);
  check_int "only the in-space bytes" 2 (Harrier.Shadow.tagged_bytes s);
  Harrier.Shadow.set_byte s 0x100000 (tag_of [ bin_x ]);
  Harrier.Shadow.set_range s 0xFFFFF 2 a;
  check "a full budget is not hit" false (Harrier.Shadow.degraded s);
  check_int "still one page" 1 (Harrier.Shadow.live_pages s);
  Alcotest.check tagset "past the end reads untagged" Taint.Tagset.empty
    (Harrier.Shadow.byte s 0x100000);
  Alcotest.check tagset "a straddling range unions the in-space bytes"
    (tag_of [ user; file_a ])
    (Harrier.Shadow.range s 0xFFFFC 8)

(* ------------------------------------------------------------------ *)
(* Dataflow                                                            *)

let machine_with insns =
  let img =
    Binary.Image.make ~path:"/t" ~kind:Binary.Image.Executable ~base:0x100
      ~text:(Array.of_list insns) ~sections:[] ~exports:[] ~relocs:[]
      ~needed:[] ~entry:0x100
  in
  let m = Vm.Machine.create () in
  Vm.Machine.map_image m img;
  Vm.Machine.set_eip m 0x100;
  Vm.Machine.set_reg m ESP 0xF000;
  m

let imm_tag = tag_of [ bin_x ]

let step_df s m insn = ignore (Harrier.Dataflow.step s m ~imm_tag insn)

let test_df_mov_reg () =
  let m = machine_with [] and s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shadow.set_reg s EBX (tag_of [ user ]);
  step_df s m (Mov (W, Reg EAX, Reg EBX));
  Alcotest.check tagset "reg copy replaces" (tag_of [ user ])
    (Harrier.Shadow.reg s EAX)

let test_df_mov_imm () =
  let m = machine_with [] and s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shadow.set_reg s EAX (tag_of [ user ]);
  step_df s m (Mov (W, Reg EAX, Imm 4));
  Alcotest.check tagset "immediate brings BINARY and clears old" imm_tag
    (Harrier.Shadow.reg s EAX)

let test_df_mov_memory () =
  let m = machine_with [] and s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shadow.set_byte s 0x2001 (tag_of [ user ]);
  Harrier.Shadow.set_byte s 0x2003 (tag_of [ file_a ]);
  step_df s m (Mov (W, Reg EAX, Isa.Operand.abs 0x2000));
  Alcotest.check tagset "word load unions 4 bytes"
    (tag_of [ user; file_a ])
    (Harrier.Shadow.reg s EAX);
  (* store spreads the tag over all four destination bytes *)
  step_df s m (Mov (W, Isa.Operand.abs 0x3000, Reg EAX));
  Alcotest.check tagset "store tags each byte" (tag_of [ user; file_a ])
    (Harrier.Shadow.byte s 0x3003)

let test_df_mov_byte () =
  let m = machine_with [] and s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shadow.set_byte s 0x2000 (tag_of [ user ]);
  step_df s m (Mov (B, Isa.Operand.abs 0x3000, Isa.Operand.abs 0x2000));
  Alcotest.check tagset "byte copy" (tag_of [ user ])
    (Harrier.Shadow.byte s 0x3000);
  Alcotest.check tagset "only one byte" Taint.Tagset.empty
    (Harrier.Shadow.byte s 0x3001)

let test_df_alu_union () =
  (* the paper's example: add %ebx,%eax unions both sets *)
  let m = machine_with [] and s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shadow.set_reg s EAX (tag_of [ user ]);
  Harrier.Shadow.set_reg s EBX (tag_of [ file_a ]);
  step_df s m (Add (Reg EAX, Reg EBX));
  Alcotest.check tagset "union" (tag_of [ user; file_a ])
    (Harrier.Shadow.reg s EAX);
  Alcotest.check tagset "source unchanged" (tag_of [ file_a ])
    (Harrier.Shadow.reg s EBX)

let test_df_cpuid () =
  let m = machine_with [] and s = Harrier.Shadow.create ~space:sp () in
  step_df s m Isa.Insn.Cpuid;
  List.iter
    (fun r ->
      Alcotest.check tagset "hardware tag"
        (tag_of [ Taint.Source.Hardware ])
        (Harrier.Shadow.reg s r))
    [ Isa.Reg.EAX; Isa.Reg.EBX; Isa.Reg.ECX; Isa.Reg.EDX ]

let test_df_push_pop () =
  let m = machine_with [] and s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shadow.set_reg s EAX (tag_of [ user ]);
  (* push: the slot below esp gets eax's tag *)
  step_df s m (Push (Reg EAX));
  Alcotest.check tagset "pushed" (tag_of [ user ])
    (Harrier.Shadow.range s (0xF000 - 4) 4);
  (* pop with esp pointing at the slot *)
  Vm.Machine.set_reg m ESP (0xF000 - 4);
  step_df s m (Pop (Reg EBX));
  Alcotest.check tagset "popped" (tag_of [ user ])
    (Harrier.Shadow.reg s EBX)

let test_df_cmp_propagates_nothing () =
  let m = machine_with [] and s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shadow.set_reg s EAX (tag_of [ user ]);
  step_df s m (Cmp (W, Reg EBX, Reg EAX));
  Alcotest.check tagset "cmp leaves dst alone" Taint.Tagset.empty
    (Harrier.Shadow.reg s EBX)

(* A compare or test returns its operands' taint as the guard, with
   immediates untainted; every other instruction returns the empty set. *)
let test_df_guard () =
  let m = machine_with [] and s = Harrier.Shadow.create ~space:sp () in
  let guard insn = Harrier.Dataflow.step s m ~imm_tag insn in
  Harrier.Shadow.set_reg s EAX (tag_of [ user ]);
  Harrier.Shadow.set_byte s 0x2002 (tag_of [ file_a ]);
  Alcotest.check tagset "cmp unions both operands" (tag_of [ user; file_a ])
    (guard (Cmp (W, Reg EAX, Isa.Operand.abs 0x2000)));
  Alcotest.check tagset "cmpb reads one byte" Taint.Tagset.empty
    (guard (Cmp (B, Reg EBX, Isa.Operand.abs 0x2000)));
  Alcotest.check tagset "test" (tag_of [ user ])
    (guard (Test (Reg EAX, Reg EBX)));
  Alcotest.check tagset "an immediate is untainted" Taint.Tagset.empty
    (guard (Cmp (W, Reg EBX, Imm 7)));
  Alcotest.check tagset "a mov has no guard" Taint.Tagset.empty
    (guard (Mov (W, Reg EBX, Reg EAX)))

let test_df_call_clears_ret_slot () =
  let m = machine_with [] and s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shadow.set_range s (0xF000 - 4) 4 (tag_of [ user ]);
  step_df s m (Call (Imm 0x200));
  Alcotest.check tagset "return address untainted" Taint.Tagset.empty
    (Harrier.Shadow.range s (0xF000 - 4) 4)

(* ------------------------------------------------------------------ *)
(* Frequency                                                           *)

let test_freq_counting () =
  let f = Harrier.Freq.create () in
  check "nothing attributed yet" true (Harrier.Freq.attributed_bb f = None);
  check_int "no event freq yet" 0 (Harrier.Freq.event_frequency f);
  Harrier.Freq.on_bb f ~is_app:true 0x10;
  Harrier.Freq.on_bb f ~is_app:true 0x10;
  Harrier.Freq.on_bb f ~is_app:true 0x20;
  check_int "count per leader" 2 (Harrier.Freq.count f 0x10);
  check "attribution follows app" true
    (Harrier.Freq.attributed_bb f = Some 0x20);
  check_int "event freq of attributed" 1 (Harrier.Freq.event_frequency f);
  Alcotest.(check (list (pair int int)))
    "blocks" [ 0x10, 2; 0x20, 1 ]
    (List.sort compare (Harrier.Freq.blocks f))

let test_freq_library_attribution () =
  (* Fig. 3: shared-object blocks keep the last *app* block current *)
  let f = Harrier.Freq.create () in
  Harrier.Freq.on_bb f ~is_app:true 0x10;
  Harrier.Freq.on_bb f ~is_app:false 0x4000;
  Harrier.Freq.on_bb f ~is_app:false 0x4010;
  check "library code not attributed" true
    (Harrier.Freq.attributed_bb f = Some 0x10);
  check_int "library blocks not counted" 0 (Harrier.Freq.count f 0x4000)

(* A forked child's copy starts from the parent's counts and attribution,
   in cells of its own: neither side's later blocks reach the other. *)
let test_freq_copy () =
  let parent = Harrier.Freq.create () in
  Harrier.Freq.on_bb parent ~is_app:true 0x10;
  let child = Harrier.Freq.copy parent in
  check_int "child inherits counts" 1 (Harrier.Freq.count child 0x10);
  check "child inherits attribution" true
    (Harrier.Freq.attributed_bb child = Some 0x10);
  check_int "child inherits event freq" 1
    (Harrier.Freq.event_frequency child);
  Harrier.Freq.on_bb parent ~is_app:true 0x10;
  check_int "parent counts on" 2 (Harrier.Freq.count parent 0x10);
  check_int "child unaffected" 1 (Harrier.Freq.count child 0x10);
  Harrier.Freq.on_bb child ~is_app:true 0x10;
  Harrier.Freq.on_bb child ~is_app:true 0x20;
  check_int "child counts its own" 2 (Harrier.Freq.count child 0x10);
  check_int "parent unaffected" 2 (Harrier.Freq.count parent 0x10);
  check "parent attribution unaffected" true
    (Harrier.Freq.attributed_bb parent = Some 0x10)

(* ------------------------------------------------------------------ *)
(* Resources                                                           *)

let entry name origin : Harrier.Resources.entry =
  { e_kind = Harrier.Events.R_file; e_name = name; e_origin = origin;
    e_server = None }

let test_resources_lifecycle () =
  let r = Harrier.Resources.create () in
  Harrier.Resources.set r ~fd:3 (entry "/f" (tag_of [ bin_x ]));
  check "get" true (Harrier.Resources.get r ~fd:3 <> None);
  check "other fd absent" true (Harrier.Resources.get r ~fd:4 = None);
  let child = Harrier.Resources.copy r in
  check "inherited" true (Harrier.Resources.get child ~fd:3 <> None);
  Harrier.Resources.remove r ~fd:3;
  check "removed" true (Harrier.Resources.get r ~fd:3 = None);
  check "child survives removal" true
    (Harrier.Resources.get child ~fd:3 <> None);
  Harrier.Resources.set child ~fd:5 (entry "/g" Taint.Tagset.empty);
  check "parent unaffected by the child" true
    (Harrier.Resources.get r ~fd:5 = None)

let test_resources_fallback () =
  let r = Harrier.Resources.create () in
  let res =
    Harrier.Resources.resource_of r ~fd:0 ~fallback:Osim.Syscall.R_stdin
  in
  check "stdin fallback" true (res.r_name = "STDIN");
  let res =
    Harrier.Resources.resource_of r ~fd:9
      ~fallback:(Osim.Syscall.R_file "/kernel-view")
  in
  check "kernel file fallback" true (res.r_name = "/kernel-view");
  Alcotest.check tagset "fallback has no origin" Taint.Tagset.empty
    res.r_origin

let test_resources_bind () =
  let r = Harrier.Resources.create () in
  Harrier.Resources.bind_origin r ~fd:4 (tag_of [ bin_x ]) "LocalHost:80";
  (match Harrier.Resources.bound r ~fd:4 with
   | Some (tag, local) ->
     Alcotest.check tagset "bound origin" (tag_of [ bin_x ]) tag;
     check "local name" true (local = "LocalHost:80")
   | None -> Alcotest.fail "bound entry missing");
  check "bound survives the copy" true
    (Harrier.Resources.bound (Harrier.Resources.copy r) ~fd:4 <> None);
  Harrier.Resources.remove r ~fd:4;
  check "close drops the bind" true (Harrier.Resources.bound r ~fd:4 = None)

(* ------------------------------------------------------------------ *)
(* Short-circuit                                                       *)

let test_shortcircuit_frames () =
  let spec : Harrier.Shortcircuit.spec =
    { routine = "resolve";
      capture = (fun _ _ -> tag_of [ user ]);
      apply =
        (fun m shadow captured ->
          let result = Vm.Machine.get_reg m EAX in
          Harrier.Shadow.set_range shadow result 4 captured) }
  in
  let t = Harrier.Shortcircuit.create [ spec ] in
  let m = machine_with [] in
  let s = Harrier.Shadow.create ~space:sp () in
  (* simulate: Call at esp=0xF000 *)
  Vm.Machine.set_reg m ESP 0xF000;
  Harrier.Shortcircuit.on_call t ~routine:"resolve" m s ~ret_addr:0x123;
  (* inside the routine: esp after the call pushed the return address *)
  Vm.Machine.set_reg m ESP (0xF000 - 4);
  Vm.Machine.write_word m (0xF000 - 4) 0x123;
  Vm.Machine.set_reg m EAX 0x5000;  (* routine result pointer *)
  Harrier.Shortcircuit.on_ret t m s;
  Alcotest.check tagset "captured tag applied to result"
    (tag_of [ user ])
    (Harrier.Shadow.range s 0x5000 4)

let test_shortcircuit_inner_ret_ignored () =
  let spec : Harrier.Shortcircuit.spec =
    { routine = "r"; capture = (fun _ _ -> tag_of [ user ]);
      apply = (fun _ _ _ -> Alcotest.fail "applied on inner ret") }
  in
  let t = Harrier.Shortcircuit.create [ spec ] in
  let m = machine_with [] in
  let s = Harrier.Shadow.create ~space:sp () in
  Vm.Machine.set_reg m ESP 0xF000;
  Harrier.Shortcircuit.on_call t ~routine:"r" m s ~ret_addr:0x123;
  (* a nested call's ret: deeper stack, different return address *)
  Vm.Machine.set_reg m ESP (0xF000 - 12);
  Vm.Machine.write_word m (0xF000 - 12) 0x999;
  Harrier.Shortcircuit.on_ret t m s

let test_shortcircuit_unknown_routine () =
  let t = Harrier.Shortcircuit.create [] in
  let m = machine_with [] in
  let s = Harrier.Shadow.create ~space:sp () in
  Harrier.Shortcircuit.on_call t ~routine:"anything" m s ~ret_addr:1;
  Harrier.Shortcircuit.on_ret t m s  (* no frames: no-op *)

(* ------------------------------------------------------------------ *)
(* Monitor integration (via small sessions)                            *)

(* (data tag, per-source origins, target resource) of each non-stdio
   write *)
let transfer_events (r : Hth.Engine.result) =
  List.filter_map
    (function
      | Harrier.Events.Transfer
          { data; sources; target; _ } when target.r_kind <> R_stdio ->
        Some (data, sources, target)
      | _ -> None)
    r.events

let test_monitor_binary_sections_tagged () =
  (* a program that copies its rodata to a user file: the transfer's
     data tag must be BINARY(program) *)
  let exe =
    let u = Asm.create ~path:"/bin/m" ~kind:Binary.Image.Executable
        ~base:0x1000 ()
    in
    Guest.Runtime.prologue u;
    Asm.asciz u "data" "hard";
    Asm.space u "fd" 4;
    Asm.label u "_start";
    Guest.Runtime.save_argv u 1 "__scratch";
    Guest.Runtime.sys_creat u ~path:(Asm.mlbl "__scratch");
    Asm.movl u (Asm.mlbl "fd") Asm.eax;
    Guest.Runtime.sys_write u ~fd:(Asm.mlbl "fd") ~buf:(Asm.lbl "data")
      ~len:(Asm.imm 4);
    Guest.Runtime.sys_exit u 0;
    Asm.hlt u;
    Asm.finalize u
  in
  let r =
    Hth.Engine.run (Hth.Engine.create ())
      (Hth.Engine.setup ~programs:[ exe ] ~argv:[ "/bin/m"; "/out" ]
         ~main:"/bin/m" ())
  in
  match transfer_events r with
  | [ (data, _, target) ] ->
    check "data tagged BINARY" true
      (List.mem "/bin/m" (Taint.Tagset.binaries data));
    (* and the file name came from argv: USER_INPUT *)
    check "target named by user" true
      (Taint.Tagset.has_user_input target.r_origin)
  | _ -> Alcotest.fail "expected exactly one transfer"

let test_monitor_read_tags_buffer () =
  (* cat a file to another file: the transfer's source is FILE(src) *)
  let exe =
    let u = Asm.create ~path:"/bin/m" ~kind:Binary.Image.Executable
        ~base:0x1000 ()
    in
    Guest.Runtime.prologue u;
    Asm.asciz u "src" "/in";
    Asm.asciz u "dst" "/out";
    Asm.space u "fd" 4;
    Asm.space u "n" 4;
    Asm.label u "_start";
    Guest.Runtime.sys_open u ~path:(Asm.lbl "src") ~flags:0;
    Asm.movl u (Asm.mlbl "fd") Asm.eax;
    Guest.Runtime.sys_read u ~fd:(Asm.mlbl "fd") ~buf:(Asm.lbl "__buf")
      ~len:(Asm.imm 32);
    Asm.movl u (Asm.mlbl "n") Asm.eax;
    Guest.Runtime.sys_creat u ~path:(Asm.lbl "dst");
    Asm.movl u (Asm.mlbl "fd") Asm.eax;
    Guest.Runtime.sys_write u ~fd:(Asm.mlbl "fd") ~buf:(Asm.lbl "__buf")
      ~len:(Asm.mlbl "n");
    Guest.Runtime.sys_exit u 0;
    Asm.hlt u;
    Asm.finalize u
  in
  let r =
    Hth.Engine.run (Hth.Engine.create ())
      (Hth.Engine.setup ~programs:[ exe ] ~files:[ "/in", "payload" ]
         ~main:"/bin/m" ())
  in
  match transfer_events r with
  | [ (data, sources, _) ] ->
    check "source is the file" true
      (List.mem "/in" (Taint.Tagset.files data));
    (* per-source name origin resolved from the open *)
    (match sources with
     | [ (Taint.Source.File "/in", origin) ] ->
       check "source name was hardcoded" true
         (List.mem "/bin/m" (Taint.Tagset.binaries origin))
     | _ -> Alcotest.fail "sources list wrong")
  | _ -> Alcotest.fail "expected exactly one transfer"

let test_monitor_event_meta () =
  let exe =
    let u = Asm.create ~path:"/bin/m" ~kind:Binary.Image.Executable
        ~base:0x1000 ()
    in
    Asm.asciz u "prog" "/bin/true";
    Asm.label u "_start";
    Guest.Runtime.sys_execve u ~path:(Asm.lbl "prog") ();
    Guest.Runtime.sys_exit u 1;
    Asm.hlt u;
    Asm.finalize u
  in
  let r =
    Hth.Engine.run (Hth.Engine.create ())
      (Hth.Engine.setup
         ~programs:[ exe; Guest.Common.trivial "/bin/true" ]
         ~main:"/bin/m" ())
  in
  match
    List.find_opt
      (function Harrier.Events.Exec _ -> true | _ -> false)
      r.events
  with
  | Some (Harrier.Events.Exec { meta; _ }) ->
    check "time progressed" true (meta.time > 0);
    check_int "bb executed once" 1 meta.freq;
    check_int "attributed to the entry block" 0x1000 meta.addr;
    check_int "pid" 1 meta.pid
  | _ -> Alcotest.fail "no exec event"

let test_monitor_fork_inherits_taint () =
  (* the parent reads a hard-coded file; the *child* writes the buffer —
     the taint must survive the fork (shadow cloned, resources
     inherited) *)
  let exe =
    let u = Asm.create ~path:"/bin/m" ~kind:Binary.Image.Executable
        ~base:0x1000 ()
    in
    Guest.Runtime.prologue u;
    Asm.asciz u "src" "/secret";
    Asm.asciz u "dst" "/leak";
    Asm.space u "fd" 4;
    Asm.space u "n" 4;
    Asm.label u "_start";
    Guest.Runtime.sys_open u ~path:(Asm.lbl "src") ~flags:0;
    Asm.movl u (Asm.mlbl "fd") Asm.eax;
    Guest.Runtime.sys_read u ~fd:(Asm.mlbl "fd") ~buf:(Asm.lbl "__buf")
      ~len:(Asm.imm 32);
    Asm.movl u (Asm.mlbl "n") Asm.eax;
    Guest.Runtime.sys_fork u;
    Asm.testl u Asm.eax Asm.eax;
    Asm.jnz u "parent";
    (* child *)
    Guest.Runtime.sys_creat u ~path:(Asm.lbl "dst");
    Asm.movl u (Asm.mlbl "fd") Asm.eax;
    Guest.Runtime.sys_write u ~fd:(Asm.mlbl "fd") ~buf:(Asm.lbl "__buf")
      ~len:(Asm.mlbl "n");
    Guest.Runtime.sys_exit u 0;
    Asm.label u "parent";
    Guest.Runtime.sys_exit u 0;
    Asm.hlt u;
    Asm.finalize u
  in
  let r =
    Hth.Engine.run (Hth.Engine.create ())
      (Hth.Engine.setup ~programs:[ exe ]
         ~files:[ "/secret", "classified-bytes" ] ~main:"/bin/m" ())
  in
  match
    List.find_map
      (function
        | Harrier.Events.Transfer
            { data; sources; target = { r_name = "/leak"; _ }; meta; _ } ->
          Some (data, sources, meta)
        | _ -> None)
      r.events
  with
  | Some (data, sources, meta) ->
    check "child pid performed the write" true (meta.pid = 2);
    check "taint crossed the fork" true
      (List.mem "/secret" (Taint.Tagset.files data));
    (match sources with
     | [ (Taint.Source.File "/secret", origin) ] ->
       check "resource origin inherited" true
         (List.mem "/bin/m" (Taint.Tagset.binaries origin))
     | _ -> Alcotest.fail "sources wrong")
  | None -> Alcotest.fail "child write not observed"

(* Each process's hooks are its own: a child that overwrites the
   inherited buffer with immediates (mov only) leaves the parent's taint
   alone, so the parent's later write carries only the file it read. *)
let test_monitor_fork_isolates_child () =
  let exe =
    let u = Asm.create ~path:"/bin/m" ~kind:Binary.Image.Executable
        ~base:0x1000 ()
    in
    Guest.Runtime.prologue u;
    Asm.asciz u "src" "/secret";
    Asm.asciz u "dst" "/leak";
    Asm.space u "fd" 4;
    Asm.label u "_start";
    Guest.Runtime.sys_open u ~path:(Asm.lbl "src") ~flags:0;
    Asm.movl u (Asm.mlbl "fd") Asm.eax;
    Guest.Runtime.sys_read u ~fd:(Asm.mlbl "fd") ~buf:(Asm.lbl "__buf")
      ~len:(Asm.imm 16);
    Guest.Runtime.sys_fork u;
    Asm.testl u Asm.eax Asm.eax;
    Asm.jnz u "parent";
    (* child *)
    for i = 0 to 3 do
      Asm.movl u (Asm.mlbl ~off:(4 * i) "__buf") (Asm.imm 0x41414141)
    done;
    Guest.Runtime.sys_exit u 0;
    Asm.label u "parent";
    Guest.Runtime.sys_sleep u 100;
    Guest.Runtime.sys_creat u ~path:(Asm.lbl "dst");
    Asm.movl u (Asm.mlbl "fd") Asm.eax;
    Guest.Runtime.sys_write u ~fd:(Asm.mlbl "fd") ~buf:(Asm.lbl "__buf")
      ~len:(Asm.imm 16);
    Guest.Runtime.sys_exit u 0;
    Asm.hlt u;
    Asm.finalize u
  in
  let r =
    Hth.Engine.run (Hth.Engine.create ())
      (Hth.Engine.setup ~programs:[ exe ]
         ~files:[ "/secret", "classified-bytes" ] ~main:"/bin/m" ())
  in
  match
    List.find_map
      (function
        | Harrier.Events.Transfer
            { data; target = { r_name = "/leak"; _ }; meta; _ } ->
          Some (data, meta)
        | _ -> None)
      r.events
  with
  | Some (data, meta) ->
    check_int "the parent wrote" 1 meta.pid;
    check "FILE:/secret" true (List.mem "/secret" (Taint.Tagset.files data));
    Alcotest.(check (list string))
      "no BINARY from the child's stores" []
      (Taint.Tagset.binaries data)
  | None -> Alcotest.fail "parent write not observed"

(* execve keeps the fd table, as the kernel keeps the fds, and restarts
   the block counts: /bin/w, loaded at /bin/m's base, writes from its
   first block to the fd /bin/m created under a hard-coded name. *)
let test_monitor_exec_keeps_fds () =
  let image path ~data ~code =
    let u = Asm.create ~path ~kind:Binary.Image.Executable ~base:0x1000 () in
    List.iter (fun (name, s) -> Asm.asciz u name s) data;
    Asm.label u "_start";
    code u;
    Asm.hlt u;
    Asm.finalize u
  in
  let m =
    image "/bin/m" ~data:[ "out", "/out"; "prog", "/bin/w" ] ~code:(fun u ->
        Guest.Runtime.sys_creat u ~path:(Asm.lbl "out");
        Guest.Runtime.sys_execve u ~path:(Asm.lbl "prog") ();
        Guest.Runtime.sys_exit u 1)
  in
  let w =
    image "/bin/w" ~data:[ "msg", "hello" ] ~code:(fun u ->
        Guest.Runtime.sys_write u ~fd:(Asm.imm 3) ~buf:(Asm.lbl "msg")
          ~len:(Asm.imm 5);
        Guest.Runtime.sys_exit u 0)
  in
  let r =
    Hth.Engine.run (Hth.Engine.create ())
      (Hth.Engine.setup ~programs:[ m; w ] ~main:"/bin/m" ())
  in
  match
    List.find_map
      (function
        | Harrier.Events.Transfer { target; meta; _ } -> Some (target, meta)
        | _ -> None)
      r.events
  with
  | Some (target, meta) ->
    Alcotest.(check string) "target" "/out" target.r_name;
    Alcotest.(check (list string))
      "origin BINARY:/bin/m" [ "/bin/m" ]
      (Taint.Tagset.binaries target.r_origin);
    check_int "counts restart at exec" 1 meta.freq;
    check_int "at /bin/w's entry block" 0x1000 meta.addr
  | None -> Alcotest.fail "no transfer"

(* A close the fault plan fails never runs, so the fd stays open and
   keeps its entry: a later write to it still targets the hard-coded
   file, and the policy still sees that name's BINARY origin. *)
let test_monitor_failed_close_keeps_fd () =
  let exe =
    let u = Asm.create ~path:"/bin/m" ~kind:Binary.Image.Executable
        ~base:0x1000 ()
    in
    Asm.asciz u "out" "/tmp/drop";
    Asm.asciz u "msg" "hello";
    Asm.space u "fd" 4;
    Asm.label u "_start";
    Guest.Runtime.sys_creat u ~path:(Asm.lbl "out");
    Asm.movl u (Asm.mlbl "fd") Asm.eax;
    Guest.Runtime.sys_close u ~fd:(Asm.mlbl "fd");
    Guest.Runtime.sys_write u ~fd:(Asm.mlbl "fd") ~buf:(Asm.lbl "msg")
      ~len:(Asm.imm 5);
    Guest.Runtime.sys_exit u 0;
    Asm.hlt u;
    Asm.finalize u
  in
  let fault = Result.get_ok (Osim.Fault.parse "SYS_close=eio") in
  let r =
    Hth.Engine.run (Hth.Engine.create ()) ~fault
      (Hth.Engine.setup ~programs:[ exe ] ~main:"/bin/m" ())
  in
  (match
     List.find_map
       (function
         | Harrier.Events.Transfer { target; _ } -> Some target
         | _ -> None)
       r.events
   with
   | Some target ->
     Alcotest.(check string) "target" "/tmp/drop" target.r_name;
     Alcotest.(check (list string))
       "origin BINARY:/bin/m" [ "/bin/m" ]
       (Taint.Tagset.binaries target.r_origin)
   | None -> Alcotest.fail "no transfer");
  Alcotest.(check (list (pair string string)))
    "one HIGH check_write"
    [ "check_write", "HIGH" ]
    (List.map
       (fun (w : Secpert.Warning.t) ->
         w.rule, Secpert.Severity.label w.severity)
       r.warnings)

(* A kernel callback for a process the monitor never saw start is a
   wiring bug: it raises instead of dropping the observation. *)
let test_monitor_unknown_pid_raises () =
  let fs = Osim.Fs.create () in
  Osim.Fs.install_image fs (Guest.Common.trivial "/bin/true");
  let k = Osim.Kernel.create ~fs ~net:(Osim.Net.create ()) () in
  (match Osim.Kernel.spawn k ~path:"/bin/true" ~argv:[ "/bin/true" ] with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  ignore (Harrier.Monitor.attach ~judge:(fun _ -> Osim.Kernel.Allow) k);
  match Osim.Kernel.run k ~max_ticks:10_000 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a callback for an unstarted pid must raise"

let suite =
  [ Alcotest.test_case "shadow registers" `Quick test_shadow_regs;
    Alcotest.test_case "shadow memory ranges" `Quick test_shadow_memory;
    Alcotest.test_case "shadow clone isolation" `Quick test_shadow_clone;
    Alcotest.test_case "shadow ids past 16 bits" `Quick test_shadow_wide_ids;
    Alcotest.test_case "shadow past the address space" `Quick
      test_shadow_out_of_space;
    Alcotest.test_case "dataflow mov reg" `Quick test_df_mov_reg;
    Alcotest.test_case "dataflow immediate is BINARY" `Quick
      test_df_mov_imm;
    Alcotest.test_case "dataflow word load/store" `Quick
      test_df_mov_memory;
    Alcotest.test_case "dataflow byte copy" `Quick test_df_mov_byte;
    Alcotest.test_case "dataflow ALU union" `Quick test_df_alu_union;
    Alcotest.test_case "dataflow cpuid is HARDWARE" `Quick test_df_cpuid;
    Alcotest.test_case "dataflow push/pop" `Quick test_df_push_pop;
    Alcotest.test_case "dataflow cmp propagates nothing" `Quick
      test_df_cmp_propagates_nothing;
    Alcotest.test_case "dataflow compare/test guard" `Quick test_df_guard;
    Alcotest.test_case "dataflow call clears return slot" `Quick
      test_df_call_clears_ret_slot;
    Alcotest.test_case "frequency counting" `Quick test_freq_counting;
    Alcotest.test_case "frequency library attribution (Fig. 3)" `Quick
      test_freq_library_attribution;
    Alcotest.test_case "frequency copy" `Quick test_freq_copy;
    Alcotest.test_case "resources lifecycle" `Quick
      test_resources_lifecycle;
    Alcotest.test_case "resources fallback" `Quick test_resources_fallback;
    Alcotest.test_case "resources bind origin" `Quick test_resources_bind;
    Alcotest.test_case "short-circuit frames" `Quick
      test_shortcircuit_frames;
    Alcotest.test_case "short-circuit ignores inner rets" `Quick
      test_shortcircuit_inner_ret_ignored;
    Alcotest.test_case "short-circuit unknown routine" `Quick
      test_shortcircuit_unknown_routine;
    Alcotest.test_case "monitor tags binary sections" `Quick
      test_monitor_binary_sections_tagged;
    Alcotest.test_case "monitor tags read buffers" `Quick
      test_monitor_read_tags_buffer;
    Alcotest.test_case "monitor event metadata" `Quick
      test_monitor_event_meta;
    Alcotest.test_case "monitor fork inherits taint" `Quick
      test_monitor_fork_inherits_taint;
    Alcotest.test_case "monitor fork isolates the child" `Quick
      test_monitor_fork_isolates_child;
    Alcotest.test_case "monitor exec keeps fds and restarts counts" `Quick
      test_monitor_exec_keeps_fds;
    Alcotest.test_case "monitor failed close keeps the fd" `Quick
      test_monitor_failed_close_keeps_fd;
    Alcotest.test_case "monitor unknown pid raises" `Quick
      test_monitor_unknown_pid_raises ]
