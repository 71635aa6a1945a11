(* Unit tests for the two-pass assembler and the image linker. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let unit_ ?(path = "/t/u") ?(kind = Binary.Image.Executable) ?needed () =
  Asm.create ?needed ~path ~kind ~base:0x1000 ()

let test_forward_label () =
  let u = unit_ () in
  Asm.jmp u "end";  (* forward reference *)
  Asm.nop u;
  Asm.label u "end";
  Asm.hlt u;
  let img = Asm.finalize u in
  (match img.text.(0) with
   | Isa.Insn.Jmp (Isa.Operand.Imm a) -> check_int "forward target" 0x1002 a
   | _ -> Alcotest.fail "expected jmp")

let test_backward_label () =
  let u = unit_ () in
  Asm.label u "top";
  Asm.nop u;
  Asm.jmp u "top";
  let img = Asm.finalize u in
  match img.text.(1) with
  | Isa.Insn.Jmp (Isa.Operand.Imm 0x1000) -> ()
  | _ -> Alcotest.fail "backward target wrong"

let test_data_layout () =
  let u = unit_ () in
  Asm.asciz u "greeting" "hi";  (* .rodata *)
  Asm.word u "counter" 0x11223344;  (* .data *)
  Asm.label u "_start";
  Asm.movl u Asm.eax (Asm.lbl "greeting");
  Asm.movl u Asm.ebx (Asm.mlbl "counter");
  Asm.hlt u;
  let img = Asm.finalize u in
  check_int "two sections" 2 (List.length img.sections);
  let ro = List.find (fun (s : Binary.Section.t) -> s.name = ".rodata")
      img.sections
  in
  let rw = List.find (fun (s : Binary.Section.t) -> s.name = ".data")
      img.sections
  in
  check "rodata after text" true (ro.addr >= 0x1000 + 3);
  check_int "rodata aligned" 0 (ro.addr land 15);
  check "data after rodata" true (rw.addr >= ro.addr + 3);
  check_str "asciz NUL-terminated" "hi\000" (Bytes.to_string ro.bytes);
  check_int "word little-endian" 0x44 (Char.code (Bytes.get rw.bytes 0));
  (* the mov immediates must point at the sections *)
  (match img.text.(0) with
   | Isa.Insn.Mov (_, _, Isa.Operand.Imm a) ->
     check_int "greeting address" ro.addr a
   | _ -> Alcotest.fail "mov imm expected");
  match img.text.(1) with
  | Isa.Insn.Mov (_, _, Isa.Operand.Mem { disp; _ }) ->
    check_int "counter address" rw.addr disp
  | _ -> Alcotest.fail "mov mem expected"

let test_space_zeroed () =
  let u = unit_ () in
  Asm.space u "buf" 16;
  Asm.hlt u;
  let img = Asm.finalize u in
  let rw = List.find (fun (s : Binary.Section.t) -> s.name = ".data")
      img.sections
  in
  check_int "reserved size" 16 (Bytes.length rw.bytes);
  check "zeroed" true
    (Bytes.for_all (fun c -> c = '\000') rw.bytes)

let test_duplicate_label_rejected () =
  let u = unit_ () in
  Asm.label u "x";
  (match Asm.label u "x" with
   | exception Failure _ -> ()
   | () -> Alcotest.fail "duplicate text label accepted");
  match Asm.asciz u "x" "s" with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "duplicate data label accepted"

let test_undefined_label_rejected () =
  let u = unit_ () in
  Asm.movl u Asm.eax (Asm.lbl "ghost");
  match Asm.finalize u with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "undefined label accepted"

let test_undefined_jump_rejected () =
  let u = unit_ () in
  Asm.jmp u "nowhere";
  match Asm.finalize u with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "undefined jump target accepted"

let test_entry_point () =
  let u = unit_ () in
  Asm.nop u;
  Asm.label u "_start";
  Asm.hlt u;
  check_int "entry at _start" 0x1001 (Asm.finalize u).entry;
  let v = unit_ () in
  Asm.hlt v;
  check_int "entry defaults to base" 0x1000 (Asm.finalize v).entry

let test_exports () =
  let u = unit_ ~kind:Binary.Image.Shared_object () in
  Asm.label u "f";
  Asm.export u "f";
  Asm.ret u;
  let img = Asm.finalize u in
  check "export resolved" true
    (Binary.Symbol.find_export img.exports "f" = Some 0x1000);
  check "exported routine lookup" true
    (Binary.Image.exported_routine img 0x1000 = Some "f")

let test_import_reloc_and_link () =
  let u = unit_ ~needed:[ "/t/lib" ] () in
  Asm.label u "_start";
  Asm.call u "external_fn";  (* unknown label -> import *)
  Asm.hlt u;
  let img = Asm.finalize u in
  check_int "one reloc" 1 (List.length img.relocs);
  (* unresolved link fails *)
  (match Binary.Image.link img ~resolve:(fun _ -> None) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unresolved symbol accepted");
  (* resolved link patches the call *)
  let linked =
    match
      Binary.Image.link img ~resolve:(fun s ->
          if s = "external_fn" then Some 0x4242 else None)
    with
    | Ok linked -> linked
    | Error msg -> Alcotest.fail msg
  in
  check_int "relocs consumed" 0 (List.length linked.relocs);
  match linked.text.(0) with
  | Isa.Insn.Call (Isa.Operand.Imm 0x4242) -> ()
  | _ -> Alcotest.fail "call not patched"

let test_local_call_not_import () =
  let u = unit_ () in
  Asm.label u "_start";
  Asm.call u "helper";
  Asm.hlt u;
  Asm.label u "helper";
  Asm.ret u;
  let img = Asm.finalize u in
  check_int "no relocs for local calls" 0 (List.length img.relocs)

let test_mlbl_base_lowering () =
  let u = unit_ () in
  Asm.space u "table" 8;
  Asm.movb u Asm.eax (Asm.mlbl_base Isa.Reg.ECX ~off:2 "table");
  Asm.hlt u;
  let img = Asm.finalize u in
  match img.text.(0) with
  | Isa.Insn.Mov (Isa.Insn.B, _, Isa.Operand.Mem { base = Some ECX; disp; _ })
    ->
    let rw = List.find (fun (s : Binary.Section.t) -> s.name = ".data")
        img.sections
    in
    check_int "base+label+off" (rw.addr + 2) disp
  | _ -> Alcotest.fail "mlbl_base lowering wrong"

let test_listing () =
  let u = unit_ () in
  Asm.label u "_start";
  Asm.nop u;
  Asm.hlt u;
  let text = Asm.listing (Asm.finalize u) in
  check "listing mentions nop" true
    (Astring.String.is_infix ~affix:"nop" text);
  check "listing has addresses" true
    (Astring.String.is_infix ~affix:"1000:" text)

let test_executable_runs () =
  (* end-to-end: assemble, map, execute *)
  let u = unit_ () in
  Asm.word u "acc" 5;
  Asm.label u "_start";
  Asm.movl u Asm.eax (Asm.mlbl "acc");
  Asm.addl u Asm.eax (Asm.imm 37);
  Asm.hlt u;
  let img = Asm.finalize u in
  let m = Vm.Machine.create () in
  Vm.Machine.map_image m img;
  Vm.Machine.set_eip m img.entry;
  let rec go n =
    if n > 100 then Alcotest.fail "runaway"
    else
      match Vm.Machine.step m with
      | Vm.Machine.Stopped _ -> ()
      | _ -> go (n + 1)
  in
  go 0;
  check_int "assembled program computes" 42 (Vm.Machine.get_reg m EAX)

let suite =
  [ Alcotest.test_case "forward label" `Quick test_forward_label;
    Alcotest.test_case "backward label" `Quick test_backward_label;
    Alcotest.test_case "data layout" `Quick test_data_layout;
    Alcotest.test_case "space is zeroed" `Quick test_space_zeroed;
    Alcotest.test_case "duplicate labels rejected" `Quick
      test_duplicate_label_rejected;
    Alcotest.test_case "undefined label rejected" `Quick
      test_undefined_label_rejected;
    Alcotest.test_case "undefined jump rejected" `Quick
      test_undefined_jump_rejected;
    Alcotest.test_case "entry point selection" `Quick test_entry_point;
    Alcotest.test_case "exports" `Quick test_exports;
    Alcotest.test_case "import reloc and link" `Quick
      test_import_reloc_and_link;
    Alcotest.test_case "local calls are not imports" `Quick
      test_local_call_not_import;
    Alcotest.test_case "mlbl_base lowering" `Quick test_mlbl_base_lowering;
    Alcotest.test_case "listing" `Quick test_listing;
    Alcotest.test_case "assembled program executes" `Quick
      test_executable_runs ]
