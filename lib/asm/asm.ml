type arg =
  | Imm of int
  | Reg of Isa.Reg.t
  | Mem of Isa.Operand.mem_ref
  | Lbl of string
  | Mlbl of string * int
  | MlblBase of Isa.Reg.t * string * int

let eax = Reg Isa.Reg.EAX
let ebx = Reg Isa.Reg.EBX
let ecx = Reg Isa.Reg.ECX
let edx = Reg Isa.Reg.EDX
let esi = Reg Isa.Reg.ESI
let edi = Reg Isa.Reg.EDI
let esp = Reg Isa.Reg.ESP

let imm n = Imm n
let lbl name = Lbl name
let mlbl ?(off = 0) name = Mlbl (name, off)
let mlbl_base r ?(off = 0) name = MlblBase (r, name, off)
let ind r = Mem { base = Some r; index = None; scale = 1; disp = 0 }
let ind_off r disp = Mem { base = Some r; index = None; scale = 1; disp }

let idx base index scale disp =
  Mem { base = Some base; index = Some index; scale; disp }

(* Text is collected as shapes whose label references are resolved in the
   second pass. *)
type shape =
  | SMov of Isa.Insn.size
  | SLea
  | SAdd
  | SSub
  | SAnd
  | SOr
  | SXor
  | SMul
  | SDiv
  | SShl
  | SShr
  | SInc
  | SDec
  | SCmp of Isa.Insn.size
  | STest
  | SPush
  | SPop
  | SJmp of string
  | SJmpi
  | SJcc of Isa.Insn.cond * string
  | SCall of string
  | SCalli
  | SRet
  | SInt of int
  | SCpuid
  | SNop
  | SHlt

type text_item = { shape : shape; args : arg list }

type data_pos = Ro of int | Rw of int

type t = {
  path : string;
  kind : Binary.Image.kind;
  base : int;
  needed : string list;
  mutable text : text_item list;  (* reversed *)
  mutable text_len : int;
  text_labels : (string, int) Hashtbl.t;  (* label -> text index *)
  data_labels : (string, data_pos) Hashtbl.t;
  ro_buf : Buffer.t;
  rw_buf : Buffer.t;
  mutable exports : string list;
}

let create ?(needed = []) ~path ~kind ~base () =
  { path; kind; base; needed; text = []; text_len = 0;
    text_labels = Hashtbl.create 64; data_labels = Hashtbl.create 64;
    ro_buf = Buffer.create 256; rw_buf = Buffer.create 256; exports = [] }

let emit u shape args =
  u.text <- { shape; args } :: u.text;
  u.text_len <- u.text_len + 1

let label u name =
  if Hashtbl.mem u.text_labels name || Hashtbl.mem u.data_labels name then
    failwith (Fmt.str "Asm: duplicate label %S in %s" name u.path);
  Hashtbl.replace u.text_labels name u.text_len

let export u name = u.exports <- name :: u.exports

let movl u dst src = emit u (SMov Isa.Insn.W) [ dst; src ]
let movb u dst src = emit u (SMov Isa.Insn.B) [ dst; src ]
let lea u dst src = emit u SLea [ dst; src ]
let addl u a b = emit u SAdd [ a; b ]
let subl u a b = emit u SSub [ a; b ]
let andl u a b = emit u SAnd [ a; b ]
let orl u a b = emit u SOr [ a; b ]
let xorl u a b = emit u SXor [ a; b ]
let imull u a b = emit u SMul [ a; b ]
let idivl u a b = emit u SDiv [ a; b ]
let shll u a b = emit u SShl [ a; b ]
let shrl u a b = emit u SShr [ a; b ]
let incl u a = emit u SInc [ a ]
let decl u a = emit u SDec [ a ]
let cmpl u a b = emit u (SCmp Isa.Insn.W) [ a; b ]
let cmpb u a b = emit u (SCmp Isa.Insn.B) [ a; b ]
let testl u a b = emit u STest [ a; b ]
let pushl u a = emit u SPush [ a ]
let popl u a = emit u SPop [ a ]
let jmp u name = emit u (SJmp name) []
let jmpi u a = emit u SJmpi [ a ]
let jz u n = emit u (SJcc (Isa.Insn.Z, n)) []
let jnz u n = emit u (SJcc (Isa.Insn.NZ, n)) []
let jl u n = emit u (SJcc (Isa.Insn.L, n)) []
let jle u n = emit u (SJcc (Isa.Insn.LE, n)) []
let jg u n = emit u (SJcc (Isa.Insn.G, n)) []
let jge u n = emit u (SJcc (Isa.Insn.GE, n)) []
let js u n = emit u (SJcc (Isa.Insn.S, n)) []
let jns u n = emit u (SJcc (Isa.Insn.NS, n)) []
let call u name = emit u (SCall name) []
let calli u a = emit u SCalli [ a ]
let ret u = emit u SRet []
let int80 u = emit u (SInt 0x80) []
let cpuid u = emit u SCpuid []
let nop u = emit u SNop []
let hlt u = emit u SHlt []

let define_data u buf pos_of name payload =
  if Hashtbl.mem u.text_labels name || Hashtbl.mem u.data_labels name then
    failwith (Fmt.str "Asm: duplicate label %S in %s" name u.path);
  Hashtbl.replace u.data_labels name (pos_of (Buffer.length buf));
  Buffer.add_string buf payload

let asciz u name s = define_data u u.ro_buf (fun o -> Ro o) name (s ^ "\000")
let bytes_ u name s = define_data u u.ro_buf (fun o -> Ro o) name s

let word u name v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  define_data u u.rw_buf (fun o -> Rw o) name (Bytes.to_string b)

let space u name n =
  define_data u u.rw_buf (fun o -> Rw o) name (String.make n '\000')

let align16 n = (n + 15) land lnot 15

let finalize u =
  let items = Array.of_list (List.rev u.text) in
  let text_end = u.base + Array.length items in
  let ro_base = align16 text_end in
  let rw_base = align16 (ro_base + Buffer.length u.ro_buf) in
  let addr_of name =
    match Hashtbl.find_opt u.text_labels name with
    | Some i -> Some (u.base + i)
    | None ->
      (match Hashtbl.find_opt u.data_labels name with
       | Some (Ro o) -> Some (ro_base + o)
       | Some (Rw o) -> Some (rw_base + o)
       | None -> None)
  in
  let addr_exn name =
    match addr_of name with
    | Some a -> a
    | None -> failwith (Fmt.str "Asm: undefined label %S in %s" name u.path)
  in
  let lower_arg = function
    | Imm n -> Isa.Operand.Imm n
    | Reg r -> Isa.Operand.Reg r
    | Mem m -> Isa.Operand.Mem m
    | Lbl name -> Isa.Operand.Imm (addr_exn name)
    | Mlbl (name, off) ->
      Isa.Operand.Mem
        { base = None; index = None; scale = 1; disp = addr_exn name + off }
    | MlblBase (r, name, off) ->
      Isa.Operand.Mem
        { base = Some r; index = None; scale = 1; disp = addr_exn name + off }
  in
  let relocs = ref [] in
  let lower i { shape; args } =
    let a n = lower_arg (List.nth args n) in
    let reg n =
      match List.nth args n with
      | Reg r -> r
      | _ -> failwith "Asm: lea destination must be a register"
    in
    let memref n =
      match lower_arg (List.nth args n) with
      | Isa.Operand.Mem m -> m
      | _ -> failwith "Asm: lea source must be a memory reference"
    in
    let open Isa.Insn in
    match shape with
    | SMov sz -> Mov (sz, a 0, a 1)
    | SLea -> Lea (reg 0, memref 1)
    | SAdd -> Add (a 0, a 1)
    | SSub -> Sub (a 0, a 1)
    | SAnd -> And (a 0, a 1)
    | SOr -> Or (a 0, a 1)
    | SXor -> Xor (a 0, a 1)
    | SMul -> Mul (a 0, a 1)
    | SDiv -> Div (a 0, a 1)
    | SShl -> Shl (a 0, a 1)
    | SShr -> Shr (a 0, a 1)
    | SInc -> Inc (a 0)
    | SDec -> Dec (a 0)
    | SCmp sz -> Cmp (sz, a 0, a 1)
    | STest -> Test (a 0, a 1)
    | SPush -> Push (a 0)
    | SPop -> Pop (a 0)
    | SJmp name -> Jmp (Imm (addr_exn name))
    | SJmpi -> Jmp (a 0)
    | SJcc (c, name) -> Jcc (c, Imm (addr_exn name))
    | SCall name ->
      (match addr_of name with
       | Some addr -> Call (Imm addr)
       | None ->
         relocs := Binary.Symbol.reloc i name :: !relocs;
         Call (Imm 0))
    | SCalli -> Call (a 0)
    | SRet -> Ret
    | SInt n -> Int n
    | SCpuid -> Cpuid
    | SNop -> Nop
    | SHlt -> Hlt
  in
  let text = Array.mapi lower items in
  let sections =
    let sec name addr buf =
      if Buffer.length buf = 0 then []
      else
        [ Binary.Section.make ~name ~addr
            ~bytes:(Bytes.of_string (Buffer.contents buf)) ]
    in
    sec ".rodata" ro_base u.ro_buf @ sec ".data" rw_base u.rw_buf
  in
  let exports =
    List.rev_map (fun name -> Binary.Symbol.export name (addr_exn name))
      u.exports
  in
  let entry =
    match addr_of "_start" with Some a -> a | None -> u.base
  in
  Binary.Image.make ~path:u.path ~kind:u.kind ~base:u.base ~text ~sections
    ~exports ~relocs:(List.rev !relocs) ~needed:u.needed ~entry

let listing (img : Binary.Image.t) =
  let b = Buffer.create 1024 in
  Array.iteri
    (fun i insn ->
      Buffer.add_string b
        (Fmt.str "%6x:  %s\n" (img.base + i) (Isa.Insn.to_string insn)))
    img.text;
  Buffer.contents b
