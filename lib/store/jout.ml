(* Rendering the store's own metadata (index lines, manifest entries)
   in the same flat JSONL dialect the trace emitter uses, so
   [Forensics.Jsonl.parse_line] reads it back. *)

let quote = Obs.json_string
