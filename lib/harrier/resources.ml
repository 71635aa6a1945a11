type entry = {
  e_kind : Events.resource_kind;
  e_name : string;
  e_origin : Taint.Tagset.t;
  e_server : Events.resource option;
}

type t = {
  table : (int * int, entry) Hashtbl.t;
  binds : (int * int, Taint.Tagset.t * string) Hashtbl.t;
}

let create () = { table = Hashtbl.create 32; binds = Hashtbl.create 8 }

let set t ~pid ~fd entry = Hashtbl.replace t.table (pid, fd) entry

let get t ~pid ~fd = Hashtbl.find_opt t.table (pid, fd)

let remove t ~pid ~fd =
  Hashtbl.remove t.table (pid, fd);
  Hashtbl.remove t.binds (pid, fd)

let bind_origin t ~pid ~fd tag local =
  Hashtbl.replace t.binds (pid, fd) (tag, local)

let bound t ~pid ~fd = Hashtbl.find_opt t.binds (pid, fd)

let inherit_from t ~parent ~child =
  let copy tbl =
    Hashtbl.iter
      (fun (pid, fd) v -> if pid = parent then Hashtbl.replace tbl (child, fd) v)
      (Hashtbl.copy tbl)
  in
  copy t.table;
  copy t.binds

let resource_of t ~pid ~fd ~fallback : Events.resource =
  match get t ~pid ~fd with
  | Some e -> { r_kind = e.e_kind; r_name = e.e_name; r_origin = e.e_origin }
  | None ->
    (match (fallback : Osim.Syscall.resource) with
     | R_stdin ->
       { r_kind = Events.R_stdio; r_name = "STDIN";
         r_origin = Taint.Tagset.empty }
     | R_stdout ->
       { r_kind = Events.R_stdio; r_name = "STDOUT";
         r_origin = Taint.Tagset.empty }
     | R_stderr ->
       { r_kind = Events.R_stdio; r_name = "STDERR";
         r_origin = Taint.Tagset.empty }
     | R_file path ->
       { r_kind = Events.R_file; r_name = path;
         r_origin = Taint.Tagset.empty }
     | R_sock { sr_peer; sr_local; _ } ->
       let name =
         match sr_peer, sr_local with
         | Some p, _ -> p
         | None, Some l -> l
         | None, None -> "socket"
       in
       { r_kind = Events.R_socket; r_name = name;
         r_origin = Taint.Tagset.empty }
     | R_unknown ->
       { r_kind = Events.R_stdio; r_name = "unknown";
         r_origin = Taint.Tagset.empty })

let server_of t ~pid ~fd =
  match get t ~pid ~fd with
  | Some { e_server; _ } -> e_server
  | None -> None
