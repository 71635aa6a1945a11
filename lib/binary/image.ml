type kind = Executable | Shared_object

type t = {
  path : string;
  kind : kind;
  base : int;
  text : Isa.Insn.t array;
  sections : Section.t list;
  exports : Symbol.export list;
  relocs : Symbol.reloc list;
  needed : string list;
  entry : int;
}

let make ~path ~kind ~base ~text ~sections ~exports ~relocs ~needed ~entry =
  { path; kind; base; text; sections; exports; relocs; needed; entry }

let patch_insn insn addr =
  let open Isa.Insn in
  match insn with
  | Call (Imm _) -> Ok (Call (Imm addr))
  | Jmp (Imm _) -> Ok (Jmp (Imm addr))
  | Mov (sz, dst, Imm _) -> Ok (Mov (sz, dst, Imm addr))
  | Push (Imm _) -> Ok (Push (Imm addr))
  | _ -> Error (Fmt.str "unsupported relocation target %s" (to_string insn))

(* An image without relocations is already linked: it is returned as
   is, so its text array is shared by every process that maps it. *)
let link img ~resolve =
  match img.relocs with
  | [] -> Ok img
  | relocs ->
    let text = Array.copy img.text in
    let rec patch = function
      | [] -> Ok { img with text; relocs = [] }
      | (r : Symbol.reloc) :: rest ->
        (match resolve r.target with
         | None -> Error (Fmt.str "%s: unresolved symbol %S" img.path r.target)
         | Some addr ->
           (match patch_insn text.(r.text_index) addr with
            | Error msg -> Error (Fmt.str "%s: %s" img.path msg)
            | Ok insn ->
              text.(r.text_index) <- insn;
              patch rest))
    in
    patch relocs

let exported_routine img addr =
  List.find_map
    (fun (e : Symbol.export) ->
      if e.sym_addr = addr then Some e.sym_name else None)
    img.exports

let pp ppf img =
  let kind = match img.kind with
    | Executable -> "exec"
    | Shared_object -> "so"
  in
  Fmt.pf ppf "@[<v>%s (%s) base=0x%x text=%d insns entry=0x%x@,%a@]"
    img.path kind img.base (Array.length img.text) img.entry
    Fmt.(list ~sep:cut Section.pp) img.sections
