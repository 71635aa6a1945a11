type entry = {
  e_kind : Events.resource_kind;
  e_name : string;
  e_origin : Taint.Tagset.t;
  e_server : Events.resource option;
}

type t = {
  table : (int, entry) Hashtbl.t;  (* fd -> entry *)
  binds : (int, Taint.Tagset.t * string) Hashtbl.t;
}

let create () = { table = Hashtbl.create 8; binds = Hashtbl.create 2 }

let set t ~fd entry = Hashtbl.replace t.table fd entry

let get t ~fd = Hashtbl.find_opt t.table fd

let remove t ~fd =
  Hashtbl.remove t.table fd;
  Hashtbl.remove t.binds fd

let bind_origin t ~fd tag local = Hashtbl.replace t.binds fd (tag, local)

let bound t ~fd = Hashtbl.find_opt t.binds fd

let copy t = { table = Hashtbl.copy t.table; binds = Hashtbl.copy t.binds }

let resource_of t ~fd ~fallback : Events.resource =
  match get t ~fd with
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

let server_of t ~fd =
  match get t ~fd with
  | Some { e_server; _ } -> e_server
  | None -> None
