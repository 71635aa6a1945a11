(* JSON string quoting in the flat JSONL dialect the store writes and
   [Forensics.Jsonl.parse_line] reads back, for tools that render their
   own lines next to a warehouse. *)

let quote = Obs.json_string
