(* Unit tests for the ISA definitions and the virtual CPU. *)

open Vm

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Build a machine directly from an instruction list mapped at [base]. *)
let machine_of ?(base = 0x1000) ?hooks insns =
  let img =
    Binary.Image.make ~path:"/test/prog" ~kind:Binary.Image.Executable ~base
      ~text:(Array.of_list insns) ~sections:[] ~exports:[] ~relocs:[]
      ~needed:[] ~entry:base
  in
  let m = Machine.create () in
  Option.iter (Machine.set_hooks m) hooks;
  Machine.map_image m img;
  Machine.set_eip m base;
  Machine.set_reg m ESP 0xF000;
  m

(* Step until the machine stops or [fuel] runs out. *)
let run ?(fuel = 10_000) m =
  let rec go fuel =
    if fuel = 0 then Alcotest.fail "machine did not stop"
    else
      match Machine.step m with
      | Machine.Continue -> go (fuel - 1)
      | Machine.Syscall _ -> go (fuel - 1)  (* treated as nop in tests *)
      | Machine.Stopped s -> s
  in
  go fuel

let open_insn = Isa.Insn.Hlt

let test_reg_indices () =
  List.iter
    (fun r ->
      check "index round-trip" true
        (Isa.Reg.equal r (Isa.Reg.of_index (Isa.Reg.index r))))
    Isa.Reg.all;
  check_int "eight registers" 8 (List.length Isa.Reg.all);
  check_str "name" "eax" (Isa.Reg.name EAX)

let test_insn_pp () =
  (* AT&T operand order: source first *)
  check_str "mov pp" "movl $0x4,%ebx"
    (Isa.Insn.to_string (Mov (W, Reg EBX, Imm 4)));
  check_str "cpuid pp" "cpuid" (Isa.Insn.to_string Cpuid);
  check "hlt is control flow" true (Isa.Insn.writes_control_flow Isa.Insn.Hlt);
  check "mov is not" false
    (Isa.Insn.writes_control_flow (Mov (W, Reg EAX, Imm 0)))

let test_mov_and_memory () =
  let open Isa.Insn in
  let m =
    machine_of
      [ Mov (W, Reg EAX, Imm 0xDEADBEEF);
        Mov (W, Isa.Operand.abs 0x2000, Reg EAX);
        Mov (W, Reg EBX, Isa.Operand.abs 0x2000);
        open_insn ]
  in
  ignore (run m);
  check_int "round-tripped" 0xDEADBEEF (Machine.get_reg m EBX);
  check_int "little-endian low byte" 0xEF (Machine.read_byte m 0x2000);
  check_int "little-endian high byte" 0xDE (Machine.read_byte m 0x2003)

let test_movb_zero_extends () =
  let open Isa.Insn in
  let m =
    machine_of
      [ Mov (W, Reg EAX, Imm 0xFFFF);
        Mov (B, Reg EAX, Imm 0x41);
        open_insn ]
  in
  ignore (run m);
  check_int "byte mov zero-extends" 0x41 (Machine.get_reg m EAX)

let test_alu () =
  let open Isa.Insn in
  let m =
    machine_of
      [ Mov (W, Reg EAX, Imm 10); Add (Reg EAX, Imm 5);
        Mov (W, Reg EBX, Imm 3); Sub (Reg EAX, Reg EBX);
        Mul (Reg EAX, Imm 2); Div (Reg EAX, Imm 4);
        Xor (Reg ECX, Reg ECX); Or (Reg ECX, Imm 0xF0);
        And (Reg ECX, Imm 0x3C); Shl (Reg ECX, Imm 2);
        Shr (Reg ECX, Imm 1); Inc (Reg EDX); Dec (Reg EDX);
        open_insn ]
  in
  ignore (run m);
  check_int "arith chain" 6 (Machine.get_reg m EAX);
  check_int "logic chain" 0x60 (Machine.get_reg m ECX);
  check_int "inc/dec cancel" 0 (Machine.get_reg m EDX)

let test_wraparound () =
  let open Isa.Insn in
  let m =
    machine_of
      [ Mov (W, Reg EAX, Imm 0xFFFFFFFF); Add (Reg EAX, Imm 2);
        open_insn ]
  in
  ignore (run m);
  check_int "32-bit wrap" 1 (Machine.get_reg m EAX)

let test_div_by_zero_faults () =
  let open Isa.Insn in
  let m = machine_of [ Mov (W, Reg EAX, Imm 1); Div (Reg EAX, Imm 0) ] in
  match run m with
  | Machine.Faulted Machine.Div_by_zero -> ()
  | s -> Alcotest.failf "expected div fault, got %a" Machine.pp_status s

(* run a conditional-jump program: sets eax=1 if cond taken else 2 *)
let cond_result cmp_a cmp_b cond =
  let open Isa.Insn in
  let base = 0x1000 in
  let m =
    machine_of ~base
      [ Cmp (W, Imm cmp_a, Imm cmp_b);  (* 0 *)
        Jcc (cond, Imm (base + 4));     (* 1 *)
        Mov (W, Reg EAX, Imm 2);        (* 2 *)
        Hlt;                            (* 3 *)
        Mov (W, Reg EAX, Imm 1);        (* 4 *)
        Hlt ]
  in
  ignore (run m);
  Machine.get_reg m EAX

let test_conditions () =
  let open Isa.Insn in
  check_int "z taken" 1 (cond_result 5 5 Z);
  check_int "z not taken" 2 (cond_result 5 6 Z);
  check_int "nz" 1 (cond_result 5 6 NZ);
  check_int "l signed" 1 (cond_result (-1) 0 L);
  check_int "l unsigned trap avoided" 1 (cond_result 0xFFFFFFFF 0 L);
  check_int "ge" 1 (cond_result 3 3 GE);
  check_int "le" 1 (cond_result 2 3 LE);
  check_int "g" 1 (cond_result 4 3 G);
  check_int "g not on equal" 2 (cond_result 3 3 G);
  check_int "s after negative cmp" 1 (cond_result 1 2 S);
  check_int "ns" 1 (cond_result 2 1 NS)

let test_stack_call_ret () =
  let open Isa.Insn in
  let base = 0x1000 in
  let m =
    machine_of ~base
      [ Push (Imm 99);                 (* 0 *)
        Call (Imm (base + 4));         (* 1 *)
        Pop (Reg EBX);                 (* 2: pops 99 *)
        Hlt;                           (* 3 *)
        Mov (W, Reg EAX, Imm 7);       (* 4: the routine *)
        Ret ]
  in
  ignore (run m);
  check_int "routine ran" 7 (Machine.get_reg m EAX);
  check_int "stack balanced" 99 (Machine.get_reg m EBX);
  check_int "esp restored" 0xF000 (Machine.get_reg m ESP)

let test_indirect_jump () =
  let open Isa.Insn in
  let base = 0x1000 in
  let m =
    machine_of ~base
      [ Mov (W, Reg ECX, Imm (base + 3));  (* 0 *)
        Jmp (Reg ECX);                     (* 1 *)
        Hlt;                               (* 2: skipped *)
        Mov (W, Reg EAX, Imm 42);          (* 3 *)
        Hlt ]
  in
  ignore (run m);
  check_int "indirect target" 42 (Machine.get_reg m EAX)

let test_lea_and_indexed () =
  let open Isa.Insn in
  let m =
    machine_of
      [ Mov (W, Reg EBX, Imm 0x2000); Mov (W, Reg ECX, Imm 3);
        Lea (EAX, { base = Some EBX; index = Some ECX; scale = 4; disp = 8 });
        open_insn ]
  in
  ignore (run m);
  check_int "lea arithmetic" (0x2000 + 12 + 8) (Machine.get_reg m EAX)

let test_cpuid () =
  let m = machine_of [ Isa.Insn.Cpuid; open_insn ] in
  ignore (run m);
  check_int "GenuineIntel eax" 0x756E_6547 (Machine.get_reg m EAX)

let test_syscall_outcome () =
  let m = machine_of [ Isa.Insn.Int 0x80; open_insn ] in
  (match Machine.step m with
   | Machine.Syscall 0x80 -> ()
   | _ -> Alcotest.fail "int 0x80 must surface as Syscall");
  check_int "eip advanced past int" 0x1001 (Machine.eip m)

let test_bad_fetch () =
  let m = machine_of [ Isa.Insn.Jmp (Isa.Operand.Imm 0x9999) ] in
  match run m with
  | Machine.Faulted (Machine.Bad_fetch 0x9999) -> ()
  | s -> Alcotest.failf "expected bad fetch, got %a" Machine.pp_status s

let test_bad_access () =
  let open Isa.Insn in
  let m = machine_of [ Mov (W, Reg EAX, Isa.Operand.abs 0x200000) ] in
  match run m with
  | Machine.Faulted (Machine.Bad_access _) -> ()
  | s -> Alcotest.failf "expected bad access, got %a" Machine.pp_status s

let test_cstring_and_bytes () =
  let m = machine_of [ open_insn ] in
  Machine.write_string m 0x3000 "hello\000world";
  check_str "cstring stops at NUL" "hello" (Machine.read_cstring m 0x3000);
  check_str "read_bytes spans NUL" "hello\000w"
    (Machine.read_bytes m 0x3000 7)

let test_clone_isolation () =
  let open Isa.Insn in
  let m = machine_of [ Mov (W, Reg EAX, Imm 5); open_insn ] in
  let c = Machine.clone m in
  ignore (run m);
  check_int "parent ran" 5 (Machine.get_reg m EAX);
  check_int "clone untouched" 0 (Machine.get_reg c EAX);
  Machine.write_byte c 0x2000 7;
  check_int "memory is copied" 0 (Machine.read_byte m 0x2000)

let test_bb_hook () =
  let open Isa.Insn in
  let base = 0x1000 in
  let bbs = ref [] in
  let hooks =
    { Machine.no_hooks with on_bb = (fun _ addr -> bbs := addr :: !bbs) }
  in
  let m =
    machine_of ~base ~hooks
      [ Mov (W, Reg EAX, Imm 1);       (* 0: BB leader *)
        Jmp (Imm (base + 2));          (* 1 *)
        Mov (W, Reg EAX, Imm 2);       (* 2: BB leader (jump target) *)
        Mov (W, Reg EBX, Imm 3);       (* 3: same BB *)
        Hlt ]
  in
  (* a clone shares the hooks until they are rebound *)
  let shared = Machine.clone m and rebound = Machine.clone m in
  Machine.set_hooks rebound Machine.no_hooks;
  ignore (run m);
  Alcotest.(check (list int)) "bb leaders" [ base; base + 2 ]
    (List.rev !bbs);
  ignore (run rebound);
  check_int "rebound clone: no calls" 2 (List.length !bbs);
  ignore (run shared);
  check_int "shared clone: the same hook" 4 (List.length !bbs)

(* An accepted body runs through the interpreter's [exec] with no
   per-instruction hooks and settles the [vm.*] counters once per block;
   a fault mid-body must leave registers, memory, [eip], status and
   counters exactly as interpreting the same instructions does, apart
   from the body's one [vm.blocks.compiled]. *)
let test_accepted_body () =
  let open Isa.Insn in
  let vm_counters f =
    let before = Obs.snapshot () in
    let r = f () in
    ( r,
      List.filter
        (fun (n, _) -> Astring.String.is_prefix ~affix:"vm." n)
        (Obs.diff ~before ~after:(Obs.snapshot ())) )
  in
  let compare ~load ~retired ~final =
    let prog =
      [ Mov (W, Reg EAX, Imm 7);
        Add (Reg EAX, Imm 1);
        Mov (W, Isa.Operand.abs 0x2000, Reg EAX);
        Mov (W, Reg EBX, Isa.Operand.abs load);
        Mov (W, Reg ECX, Imm 1);
        Hlt ]
    in
    let pre = ref 0 in
    let hooks =
      { Machine.no_hooks with
        pre_insn = (fun _ _ _ -> incr pre);
        on_block = (fun _ _ _ len -> check_int "offered body" 5 len; true) }
    in
    let tiered = machine_of ~hooks prog in
    let (outcome, n), tiered_counts =
      vm_counters (fun () -> Machine.step_block tiered ~fuel:100)
    in
    let interp = machine_of prog in
    let (), interp_counts =
      vm_counters (fun () ->
          for _ = 1 to retired do
            ignore (Machine.step interp)
          done)
    in
    check_int "instructions retired" retired n;
    check "outcome" true
      (match outcome with
       | Machine.Continue -> final = None
       | Machine.Stopped (Faulted f) -> final = Some f
       | Machine.Syscall _ | Machine.Stopped _ -> false);
    check_int "no per-instruction hook" 0 !pre;
    check_int "eip" (Machine.eip interp) (Machine.eip tiered);
    List.iter
      (fun r ->
        check_int (Isa.Reg.name r) (Machine.get_reg interp r)
          (Machine.get_reg tiered r))
      Isa.Reg.all;
    check_int "stored word" (Machine.read_word interp 0x2000)
      (Machine.read_word tiered 0x2000);
    (* the accepted body counts once as compiled, a strategy counter
       interpretation never bumps *)
    Alcotest.(check (option int))
      "one compiled body" (Some 1)
      (List.assoc_opt "vm.blocks.compiled" tiered_counts);
    Alcotest.(check (list (pair string int)))
      "vm counters" interp_counts
      (List.remove_assoc "vm.blocks.compiled" tiered_counts)
  in
  compare ~load:0x2000 ~retired:5 ~final:None;
  (* a word load straddling the end of memory faults at the fourth
     instruction, after three have retired *)
  compare ~load:0xFFFFE ~retired:4 ~final:(Some (Machine.Bad_access 0x100001))

let test_pre_insn_hook_order () =
  let open Isa.Insn in
  let seen = ref [] in
  let hooks =
    { Machine.no_hooks with
      pre_insn =
        (fun m addr _ ->
          (* pre-hook observes the state *before* the instruction *)
          seen := (addr, Machine.get_reg m EAX) :: !seen) }
  in
  let m =
    machine_of [ Mov (W, Reg EAX, Imm 9); Mov (W, Reg EBX, Reg EAX); Hlt ]
  in
  (* hooks set after mapping take effect from the next instruction *)
  Machine.set_hooks m hooks;
  ignore (run m);
  (match List.rev !seen with
   | (a0, 0) :: (a1, 9) :: _ ->
     check_int "first addr" 0x1000 a0;
     check_int "second addr" 0x1001 a1
   | _ -> Alcotest.fail "pre-insn hook order wrong")

let test_segments () =
  let m = machine_of [ open_insn ] in
  (match Machine.segment_at m 0x1000 with
   | Some seg -> check_str "segment image" "/test/prog" seg.seg_image
   | None -> Alcotest.fail "segment missing");
  check "outside segment" true (Machine.segment_at m 0x5000 = None);
  check "fetch in range" true (Machine.fetch m 0x1000 <> None);
  check "fetch out of range" true (Machine.fetch m 0x5000 = None)

let test_mem_to_mem_mov () =
  let open Isa.Insn in
  let m =
    machine_of
      [ Mov (W, Isa.Operand.abs 0x2000, Imm 77);
        Mov (W, Isa.Operand.abs 0x2004, Isa.Operand.abs 0x2000);
        open_insn ]
  in
  ignore (run m);
  check_int "mem-to-mem allowed" 77 (Machine.read_word m 0x2004)

(* ------------------------------------------------------------------ *)
(* Demand-paged memory                                                 *)

let test_resident_pages () =
  let m = Machine.create () in
  let pages = Machine.resident_pages in
  check_int "fresh machine holds no page" 0 (pages m);
  ignore (Machine.read_byte m 0x2000);
  ignore (Machine.read_word m 0x3FFE);
  ignore (Machine.read_bytes m 0x4000 0x2000);
  ignore (Machine.read_cstring m 0x7000);
  check_int "reads allocate nothing" 0 (pages m);
  Machine.write_byte m 0x2000 1;
  check_int "first store into a page" 1 (pages m);
  Machine.write_word m 0x2FF0 7;
  Machine.write_string m 0x2100 "";
  check_int "same page, empty string" 1 (pages m);
  (match Machine.write_word m (Machine.mem_size - 2) 0xFFFFFFFF with
   | () -> Alcotest.fail "write past the end did not fault"
   | exception Machine.Fault_exn (Machine.Bad_access _) -> ());
  check_int "a faulting store allocates nothing" 1 (pages m);
  let c = Machine.clone m in
  check_int "child inherits the parent's pages" (pages m) (pages c);
  Machine.write_byte c 0x9000 2;
  check_int "child store grows the child" 2 (pages c);
  check_int "child store leaves the parent" 1 (pages m);
  Machine.write_byte m 0xA000 3;
  check_int "parent store grows the parent" 2 (pages m);
  check_int "parent store leaves the child" 2 (pages c);
  check_int "pages are private" 0 (Machine.read_byte m 0x9000)

(* Differential property: a machine and its clone against a flat-Bytes
   reference model of the same 1 MiB address space, with addresses
   biased to page edges, both ends of memory and outside it. *)
module type MEM = sig
  type t

  val read_byte : t -> int -> int
  val write_byte : t -> int -> int -> unit
  val read_word : t -> int -> int
  val write_word : t -> int -> int -> unit
  val read_bytes : t -> int -> int -> string
  val write_string : t -> int -> string -> unit
  val read_cstring : t -> int -> string
end

module Flat = struct
  type t = Bytes.t

  let check a =
    if a < 0 || a >= Machine.mem_size then
      raise (Machine.Fault_exn (Machine.Bad_access a))

  let read_byte r a =
    check a;
    Char.code (Bytes.get r a)

  let write_byte r a v =
    check a;
    Bytes.set r a (Char.chr (v land 0xFF))

  let read_word r a =
    check a;
    check (a + 3);
    Int32.to_int (Bytes.get_int32_le r a) land 0xFFFFFFFF

  let write_word r a v =
    check a;
    check (a + 3);
    Bytes.set_int32_le r a (Int32.of_int (v land 0xFFFFFFFF))

  let read_bytes r a len =
    check a;
    if len > 0 then check (a + len - 1);
    Bytes.sub_string r a len

  let write_string r a s =
    check a;
    if String.length s > 0 then check (a + String.length s - 1);
    Bytes.blit_string s 0 r a (String.length s)

  let read_cstring r a =
    check a;
    let rec stop i =
      if i >= Machine.mem_size || Bytes.get r i = '\000' then i
      else stop (i + 1)
    in
    Bytes.sub_string r a (stop a - a)
end

type mem_op =
  | Read_byte of int
  | Write_byte of int * int
  | Read_word of int
  | Write_word of int * int
  | Read_bytes of int * int
  | Write_string of int * string
  | Read_cstring of int

type outcome = Value of int | Text of string | Unit | Fault of int | Invalid

let show_op = function
  | Read_byte a -> Printf.sprintf "read_byte 0x%x" a
  | Write_byte (a, v) -> Printf.sprintf "write_byte 0x%x %d" a v
  | Read_word a -> Printf.sprintf "read_word 0x%x" a
  | Write_word (a, v) -> Printf.sprintf "write_word 0x%x %d" a v
  | Read_bytes (a, n) -> Printf.sprintf "read_bytes 0x%x %d" a n
  | Write_string (a, s) ->
    Printf.sprintf "write_string 0x%x <%d bytes>" a (String.length s)
  | Read_cstring a -> Printf.sprintf "read_cstring 0x%x" a

let outcome f =
  match f () with
  | o -> o
  | exception Machine.Fault_exn (Machine.Bad_access a) -> Fault a
  | exception Invalid_argument _ -> Invalid

let apply (type a) (module M : MEM with type t = a) (mem : a) op =
  outcome (fun () ->
      match op with
      | Read_byte a -> Value (M.read_byte mem a)
      | Write_byte (a, v) -> M.write_byte mem a v; Unit
      | Read_word a -> Value (M.read_word mem a)
      | Write_word (a, v) -> M.write_word mem a v; Unit
      | Read_bytes (a, n) -> Text (M.read_bytes mem a n)
      | Write_string (a, s) -> M.write_string mem a s; Unit
      | Read_cstring a -> Text (M.read_cstring mem a))

let addr_gen =
  let open QCheck.Gen in
  (* mostly a few pages, so reads and the child see earlier stores *)
  let page =
    let last = (Machine.mem_size lsr Machine.page_bits) - 1 in
    frequency [ 3, oneofl [ 0; 1; 2; last - 1 ]; 1, int_bound last ]
  in
  frequency
    [ 4, map2 (fun p o -> (p lsl Machine.page_bits) + 0xFFC + o)
           page (int_bound 3);
      2, map2 (fun p o -> (p lsl Machine.page_bits) + o) page (int_bound 3);
      2, int_bound 7;
      2, map (fun o -> Machine.mem_size - 1 - o) (int_bound 7);
      2, oneof [ map (fun o -> -1 - o) (int_bound 7);
                 map (fun o -> Machine.mem_size + o) (int_bound 7);
                 return 0xFFFFFFFF ];
      2, int_bound (Machine.mem_size - 1) ]

let op_gen =
  let open QCheck.Gen in
  let text =
    (* long non-NUL runs make C strings that cross page boundaries *)
    oneof
      [ map2 (fun n c -> String.make n c) (int_bound 0x1100)
          (map Char.chr (int_range 1 255));
        string_size ~gen:char (int_bound 64) ]
  in
  frequency
    [ 2, map (fun a -> Read_byte a) addr_gen;
      3, map2 (fun a v -> Write_byte (a, v)) addr_gen (int_bound 0x1FF);
      2, map (fun a -> Read_word a) addr_gen;
      3, map2 (fun a v -> Write_word (a, v)) addr_gen int;
      2, map2 (fun a n -> Read_bytes (a, n)) addr_gen
           (frequency [ 4, int_bound 0x2100; 1, int_range (-2) 0 ]);
      2, map2 (fun a s -> Write_string (a, s)) addr_gen text;
      2, map (fun a -> Read_cstring a) addr_gen ]

(* [before] runs on the parent; after the fork each step of [after]
   runs on the parent ([true]) or the child ([false]). *)
let case_gen =
  QCheck.Gen.(
    pair (list_size (int_bound 12) op_gen)
      (list_size (int_bound 24) (pair bool op_gen)))

let show_case (before, after) =
  String.concat "; " (List.map show_op before)
  ^ " | fork | "
  ^ String.concat "; "
      (List.map
         (fun (p, op) -> (if p then "parent " else "child ") ^ show_op op)
         after)

let whole m = Machine.read_bytes m 0 Machine.mem_size

let prop_paged_matches_flat =
  QCheck.Test.make ~count:150 ~long_factor:10
    ~name:"paged memory and its clone match a flat reference"
    (QCheck.make ~print:show_case case_gen)
    (fun (before, after) ->
      let untouched = Machine.create () in
      let step m r op =
        let got = apply (module Machine) m op
        and want = apply (module Flat) r op in
        if got <> want then
          QCheck.Test.fail_reportf "%s: paged and flat results differ"
            (show_op op);
        (match got with
         | Fault _ | Invalid when whole m <> Bytes.to_string r ->
           QCheck.Test.fail_reportf "%s: faulting access changed memory"
             (show_op op)
         | _ -> ())
      in
      let m = Machine.create () in
      let r = Bytes.make Machine.mem_size '\000' in
      List.iter (step m r) before;
      let c = Machine.clone m in
      let rc = Bytes.copy r in
      List.iter
        (fun (parent, op) -> if parent then step m r op else step c rc op)
        after;
      whole m = Bytes.to_string r
      && whole c = Bytes.to_string rc
      && Machine.resident_pages untouched = 0
      && whole untouched = String.make Machine.mem_size '\000')

let suite =
  [ Alcotest.test_case "register indices" `Quick test_reg_indices;
    Alcotest.test_case "instruction printing" `Quick test_insn_pp;
    Alcotest.test_case "mov and memory endianness" `Quick
      test_mov_and_memory;
    Alcotest.test_case "movb zero-extends" `Quick test_movb_zero_extends;
    Alcotest.test_case "ALU chain" `Quick test_alu;
    Alcotest.test_case "32-bit wraparound" `Quick test_wraparound;
    Alcotest.test_case "division by zero faults" `Quick
      test_div_by_zero_faults;
    Alcotest.test_case "all condition codes" `Quick test_conditions;
    Alcotest.test_case "stack, call and ret" `Quick test_stack_call_ret;
    Alcotest.test_case "indirect jump" `Quick test_indirect_jump;
    Alcotest.test_case "lea with index and scale" `Quick
      test_lea_and_indexed;
    Alcotest.test_case "cpuid identity" `Quick test_cpuid;
    Alcotest.test_case "int 0x80 surfaces syscalls" `Quick
      test_syscall_outcome;
    Alcotest.test_case "bad fetch faults" `Quick test_bad_fetch;
    Alcotest.test_case "bad access faults" `Quick test_bad_access;
    Alcotest.test_case "cstring and raw bytes" `Quick
      test_cstring_and_bytes;
    Alcotest.test_case "clone isolation" `Quick test_clone_isolation;
    Alcotest.test_case "basic-block hook" `Quick test_bb_hook;
    Alcotest.test_case "accepted body matches interpretation" `Quick
      test_accepted_body;
    Alcotest.test_case "pre-instruction hook order" `Quick
      test_pre_insn_hook_order;
    Alcotest.test_case "segments and fetch" `Quick test_segments;
    Alcotest.test_case "memory-to-memory mov" `Quick test_mem_to_mem_mov;
    Alcotest.test_case "resident pages" `Quick test_resident_pages;
    Test_props.to_alcotest_seeded prop_paged_matches_flat ]
