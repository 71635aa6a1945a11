let t_system_call_access = "system_call_access"
let t_data_transfer = "data_transfer"
let t_clone_event = "clone_event"
let t_alloc_event = "alloc_event"
let t_transfer_source = "transfer_source"

open Expert

let deftemplates engine =
  let slot = Template.slot in
  Engine.deftemplate engine
    (Template.make t_system_call_access
       [ slot "system_call_name"; slot "resource_name"; slot "resource_type";
         slot "resource_origin_name"; slot "resource_origin_type";
         slot ~default:(Value.Lst []) "argv"; slot "time"; slot "frequency";
         slot "address"; slot "pid";
         slot ~default:(Value.Int (-1)) "step" ]);
  Engine.deftemplate engine
    (Template.make t_alloc_event
       [ slot "requested"; slot "total"; slot "time"; slot "frequency";
         slot "address"; slot "pid";
         slot ~default:(Value.Int (-1)) "step" ]);
  Engine.deftemplate engine
    (Template.make t_data_transfer
       [ slot "call"; slot ~default:(Value.Str "") "head";
         slot ~default:(Value.Lst []) "sources";
         slot ~default:(Value.Lst []) "guard";
         slot "target_name"; slot "target_type"; slot "target_origin_name";
         slot "target_origin_type"; slot ~default:(Value.Sym "nil") "server";
         slot ~default:(Value.Sym "no") "server_side";
         slot ~default:(Value.Sym "UNKNOWN") "server_origin_type";
         slot ~default:(Value.Str "") "server_name";
         slot ~default:(Value.Str "") "server_origin_name";
         slot "length"; slot "time"; slot "frequency"; slot "address";
         slot "pid"; slot ~default:(Value.Int (-1)) "step" ]);
  Engine.deftemplate engine
    (Template.make t_transfer_source
       [ slot "xfer"; slot "s_type"; slot "s_name"; slot "s_origin_type";
         slot "s_origin_name"; slot ~default:(Value.Int (-1)) "step" ]);
  Engine.deftemplate engine
    (Template.make t_clone_event
       [ slot "total"; slot "recent"; slot "window"; slot "time";
         slot "frequency"; slot "address"; slot "pid";
         slot ~default:(Value.Int (-1)) "step" ])

let origin_values trust tag =
  let kind = Trust.classify trust tag in
  let name =
    match kind with
    | Taint.Origin.From_file n | From_socket n | Hardcoded n -> n
    | From_user | From_hardware | Unknown -> ""
  in
  Taint.Origin.kind_type_name kind, name

let resource_values trust (r : Harrier.Events.resource) =
  let otype, oname = origin_values trust r.r_origin in
  [ "resource_name", Value.Str r.r_name;
    "resource_type", Value.Sym (Harrier.Events.kind_name r.r_kind);
    "resource_origin_name", Value.Str oname;
    "resource_origin_type", Value.Sym otype ]

let meta_values (m : Harrier.Events.meta) =
  [ "time", Value.Int m.time; "frequency", Value.Int m.freq;
    "address", Value.Int m.addr; "pid", Value.Int m.pid;
    "step", Value.Int m.step ]

let source_entry trust (src, name_origin) =
  let otype, oname = origin_values trust name_origin in
  Value.Lst
    [ Value.Sym (Taint.Source.type_name src);
      Value.Str (Option.value (Taint.Source.resource_name src) ~default:"");
      Value.Sym otype; Value.Str oname ]

let assert_event engine trust (e : Harrier.Events.t) =
  match e with
  | Exec { path; argv; meta } ->
    Engine.assert_fact engine t_system_call_access
      (( "system_call_name", Value.Sym "SYS_execve" )
       :: ("argv", Value.Lst (List.map (fun a -> Value.Str a) argv))
       :: resource_values trust path
       @ meta_values meta)
  | Access { call; res; meta } ->
    Engine.assert_fact engine t_system_call_access
      (("system_call_name", Value.Sym call)
       :: resource_values trust res
       @ meta_values meta)
  | Clone { total; recent; window; meta } ->
    Engine.assert_fact engine t_clone_event
      ([ "total", Value.Int total; "recent", Value.Int recent;
         "window", Value.Int window ]
       @ meta_values meta)
  | Alloc { requested; total; meta } ->
    Engine.assert_fact engine t_alloc_event
      ([ "requested", Value.Int requested; "total", Value.Int total ]
       @ meta_values meta)
  | Transfer { call; sources; guard; target; via_server; len; meta; head;
               data = _ } ->
    let t_otype, t_oname = origin_values trust target.r_origin in
    let server =
      match via_server with
      | None -> Value.Sym "nil"
      | Some srv ->
        let otype, oname = origin_values trust srv.r_origin in
        Value.Lst
          [ Value.Str srv.r_name; Value.Sym otype; Value.Str oname ]
    in
    let server_fields =
      match via_server with
      | None -> []
      | Some srv ->
        let otype, oname = origin_values trust srv.r_origin in
        [ "server_side", Value.Sym "yes";
          "server_origin_type", Value.Sym otype;
          "server_name", Value.Str srv.r_name;
          "server_origin_name", Value.Str oname ]
    in
    Engine.assert_fact engine t_data_transfer
      ([ "call", Value.Sym call; "head", Value.Str head;
         "sources", Value.Lst (List.map (source_entry trust) sources);
         "guard", Value.Lst (List.map (source_entry trust) guard);
         "target_name", Value.Str target.r_name;
         "target_type",
         Value.Sym (Harrier.Events.kind_name target.r_kind);
         "target_origin_name", Value.Str t_oname;
         "target_origin_type", Value.Sym t_otype; "server", server ]
       @ server_fields
       @ [ "length", Value.Int len ]
       @ meta_values meta)

(* Assert an event plus, for transfers, one [transfer_source] fact per
   data source, whose [xfer] slot is the transfer fact's own id (the
   value a rule's [?x <- (data_transfer ...)] binds) — the encoding the
   textual CLIPS policy pattern-matches against. *)
let assert_event_full engine trust (e : Harrier.Events.t) =
  let main = assert_event engine trust e in
  match e with
  | Transfer { sources; meta; _ } ->
    let xfer = Value.Int main.Fact.id in
    main
    :: List.map
         (fun (src, name_origin) ->
           let otype, oname = origin_values trust name_origin in
           Engine.assert_fact engine t_transfer_source
             [ "xfer", xfer;
               "s_type", Value.Sym (Taint.Source.type_name src);
               "s_name",
               Value.Str
                 (Option.value (Taint.Source.resource_name src)
                    ~default:"");
               "s_origin_type", Value.Sym otype;
               "s_origin_name", Value.Str oname;
               "step", Value.Int meta.step ])
         sources
  | Exec _ | Clone _ | Access _ | Alloc _ -> [ main ]

let get_value bindings name =
  match Pattern.lookup bindings name with
  | Some v -> v
  | None -> failwith (Fmt.str "Secpert.Facts: unbound rule variable %S" name)

let get_str bindings name =
  match get_value bindings name with
  | Value.Str s -> s
  | v -> failwith (Fmt.str "Secpert.Facts: %s is not a string: %s" name
                     (Value.to_string v))

let get_sym bindings name =
  match get_value bindings name with
  | Value.Sym s -> s
  | v -> failwith (Fmt.str "Secpert.Facts: %s is not a symbol: %s" name
                     (Value.to_string v))

let get_int bindings name =
  match get_value bindings name with
  | Value.Int n -> n
  | v -> failwith (Fmt.str "Secpert.Facts: %s is not an int: %s" name
                     (Value.to_string v))

type source_info = {
  s_type : string;
  s_name : string;
  s_origin_type : string;
  s_origin_name : string;
}

let decode_sources = function
  | Value.Lst entries ->
    List.filter_map
      (function
        | Value.Lst
            [ Value.Sym s_type; Value.Str s_name; Value.Sym s_origin_type;
              Value.Str s_origin_name ] ->
          Some { s_type; s_name; s_origin_type; s_origin_name }
        | _ -> None)
      entries
  | _ -> []

let decode_server = function
  | Value.Lst [ Value.Str name; Value.Sym otype; Value.Str oname ] ->
    Some (name, otype, oname)
  | _ -> None
