type mem_ref = {
  base : Reg.t option;
  index : Reg.t option;
  scale : int;
  disp : int;
}

type t =
  | Imm of int
  | Reg of Reg.t
  | Mem of mem_ref

let mem ?base ?index ?(scale = 1) disp = Mem { base; index; scale; disp }
let abs addr = mem addr

let pp_mem_ref ppf { base; index; scale; disp } =
  let pp_base ppf = function
    | None -> ()
    | Some r -> Reg.pp ppf r
  in
  match index with
  | None -> Fmt.pf ppf "0x%x(%a)" disp pp_base base
  | Some i -> Fmt.pf ppf "0x%x(%a,%a,%d)" disp pp_base base Reg.pp i scale

let pp ppf = function
  | Imm n -> Fmt.pf ppf "$0x%x" n
  | Reg r -> Reg.pp ppf r
  | Mem m -> pp_mem_ref ppf m
