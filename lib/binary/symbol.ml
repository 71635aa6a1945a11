type export = {
  sym_name : string;
  sym_addr : int;
}

type reloc = {
  text_index : int;
  target : string;
}

let export sym_name sym_addr = { sym_name; sym_addr }

let reloc text_index target = { text_index; target }

let find_export exports name =
  List.find_map
    (fun e -> if String.equal e.sym_name name then Some e.sym_addr else None)
    exports
