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
