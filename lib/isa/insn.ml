type size = B | W

type cond = Z | NZ | L | LE | G | GE | S | NS

type t =
  | Mov of size * Operand.t * Operand.t
  | Lea of Reg.t * Operand.mem_ref
  | Add of Operand.t * Operand.t
  | Sub of Operand.t * Operand.t
  | And of Operand.t * Operand.t
  | Or of Operand.t * Operand.t
  | Xor of Operand.t * Operand.t
  | Mul of Operand.t * Operand.t
  | Div of Operand.t * Operand.t
  | Shl of Operand.t * Operand.t
  | Shr of Operand.t * Operand.t
  | Inc of Operand.t
  | Dec of Operand.t
  | Cmp of size * Operand.t * Operand.t
  | Test of Operand.t * Operand.t
  | Push of Operand.t
  | Pop of Operand.t
  | Jmp of Operand.t
  | Jcc of cond * Operand.t
  | Call of Operand.t
  | Ret
  | Int of int
  | Cpuid
  | Nop
  | Hlt

let cond_name = function
  | Z -> "z"
  | NZ -> "nz"
  | L -> "l"
  | LE -> "le"
  | G -> "g"
  | GE -> "ge"
  | S -> "s"
  | NS -> "ns"

let writes_control_flow = function
  | Jmp _ | Jcc _ | Call _ | Ret | Int _ | Hlt -> true
  | Mov _ | Lea _ | Add _ | Sub _ | And _ | Or _ | Xor _ | Mul _ | Div _
  | Shl _ | Shr _ | Inc _ | Dec _ | Cmp _ | Test _ | Push _ | Pop _ | Cpuid
  | Nop -> false

let size_bytes = function B -> 1 | W -> 4

let cpuid_words =
  [ (Reg.EAX, 0x756E_6547); (Reg.EBX, 0x4963_6E74); (Reg.ECX, 0x6C65_746E);
    (Reg.EDX, 0x0000_0F4A) ]

(* Bodies are capped so one fast-path dispatch cannot swallow an
   arbitrary slice of a scheduling quantum; runs longer than the cap
   split into cap-sized windows. *)
let max_body = 48

let dst_ok (op : Operand.t) =
  match op with Imm _ -> false | Reg _ | Mem _ -> true

(* Body-safe: executes in a straight line (no control transfer, no
   trap to the kernel), cannot raise the interpreter's special-cased
   [Div_by_zero], and has a well-formed destination (a write to an
   immediate raises a plain [Failure], which the step loop does not
   catch — such an instruction must never enter a compiled body). *)
let body_safe = function
  | Mov (_, dst, _) -> dst_ok dst
  | Add (d, _) | Sub (d, _) | And (d, _) | Or (d, _) | Xor (d, _)
  | Mul (d, _) | Shl (d, _) | Shr (d, _) -> dst_ok d
  | Inc d | Dec d | Pop d -> dst_ok d
  | Lea _ | Cmp _ | Test _ | Push _ | Cpuid | Nop -> true
  | Div _ -> false
  | Jmp _ | Jcc _ | Call _ | Ret | Int _ | Hlt -> false

(* One reverse pass; the table is invariant under linking because
   relocation patching preserves every instruction's constructor
   shape. *)
let body_lens text =
  let n = Array.length text in
  let lens = Array.make n 0 in
  for i = n - 1 downto 0 do
    if body_safe text.(i) then
      lens.(i) <-
        (if i = n - 1 then 1 else min max_body (1 + lens.(i + 1)))
  done;
  lens

let size_suffix = function B -> "b" | W -> "l"

let pp ppf t =
  let op = Operand.pp in
  let bin name a b = Fmt.pf ppf "%s %a,%a" name op b op a in
  match t with
  | Mov (sz, dst, src) -> bin ("mov" ^ size_suffix sz) dst src
  | Lea (r, m) -> Fmt.pf ppf "lea %a,%a" Operand.pp_mem_ref m Reg.pp r
  | Add (a, b) -> bin "add" a b
  | Sub (a, b) -> bin "sub" a b
  | And (a, b) -> bin "and" a b
  | Or (a, b) -> bin "or" a b
  | Xor (a, b) -> bin "xor" a b
  | Mul (a, b) -> bin "imul" a b
  | Div (a, b) -> bin "idiv" a b
  | Shl (a, b) -> bin "shl" a b
  | Shr (a, b) -> bin "shr" a b
  | Inc a -> Fmt.pf ppf "inc %a" op a
  | Dec a -> Fmt.pf ppf "dec %a" op a
  | Cmp (sz, a, b) -> bin ("cmp" ^ size_suffix sz) a b
  | Test (a, b) -> bin "test" a b
  | Push a -> Fmt.pf ppf "push %a" op a
  | Pop a -> Fmt.pf ppf "pop %a" op a
  | Jmp t -> Fmt.pf ppf "jmp %a" op t
  | Jcc (c, t) -> Fmt.pf ppf "j%s %a" (cond_name c) op t
  | Call t -> Fmt.pf ppf "call %a" op t
  | Ret -> Fmt.string ppf "ret"
  | Int n -> Fmt.pf ppf "int $0x%x" n
  | Cpuid -> Fmt.string ppf "cpuid"
  | Nop -> Fmt.string ppf "nop"
  | Hlt -> Fmt.string ppf "hlt"

let to_string = Fmt.to_to_string pp
