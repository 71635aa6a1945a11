open Expert

let check_write_name = Engine.name "check_write"
let check_trigger_name = Engine.name "check_trigger"

(* Severity of one (source, target) combination, following Section 4.3.
   [t_origin] is the origin type of the target's name; for accepted
   connections the listening server's address origin is what makes the
   socket "hardcoded". *)
let name_matrix ~src_origin ~tgt_origin =
  if String.equal src_origin "SOCKET" || String.equal tgt_origin "SOCKET"
  then Some Severity.High
  else
    match String.equal src_origin "BINARY", String.equal tgt_origin "BINARY"
    with
    | true, true -> Some Severity.High
    | true, false | false, true -> Some Severity.Low
    | false, false -> None

let severity_of (s : Facts.source_info) ~target_type ~tgt_origin
    ~server_hardcoded ~server_side =
  let hardcoded_target =
    String.equal tgt_origin "BINARY" || (server_side && server_hardcoded)
  in
  match s.s_type, target_type with
  | "BINARY", "FILE" ->
    (match tgt_origin with
     | "BINARY" | "SOCKET" -> Some Severity.High
     | _ -> None)
  | "BINARY", "SOCKET" ->
    if server_side && server_hardcoded then Some Severity.High
    else if hardcoded_target then Some Severity.Low
    else None
  | ("FILE" | "SOCKET"), ("FILE" | "SOCKET") ->
    let base = name_matrix ~src_origin:s.s_origin_type ~tgt_origin in
    if server_side && server_hardcoded then
      (* any tracked flow through a hardcoded backdoor server is High *)
      Some Severity.High
    else base
  | "HARDWARE", ("FILE" | "SOCKET") ->
    if hardcoded_target then Some Severity.High else None
  | "USER_INPUT", "SOCKET" ->
    if hardcoded_target then Some Severity.Low else None
  | _, _ -> None

let file_target_message (s : Facts.source_info) ~target_name ~tgt_origin
    ~tgt_origin_name =
  let b = Buffer.create 128 in
  Buffer.add_string b (Fmt.str "Found Write call to %s" target_name);
  Buffer.add_string b
    (Fmt.str "\n\tThe Data written to this file is originated from the %s:(%S)"
       s.s_type
       (if s.s_name = "" then s.s_origin_name else s.s_name));
  if String.equal tgt_origin "BINARY" then
    Buffer.add_string b
      (Fmt.str
         "\n\tMoreover, it seems that the name of the file: %s originated \
          from a BINARY: (%S)"
         target_name tgt_origin_name);
  if String.equal tgt_origin "SOCKET" then
    Buffer.add_string b
      (Fmt.str "\n\tMoreover, the name of the file: %s originated from a \
                SOCKET: (%S)"
         target_name tgt_origin_name);
  Buffer.contents b

let socket_target_message (s : Facts.source_info) ~target_name ~tgt_origin
    ~tgt_origin_name ~server =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Fmt.str "Found Write call Data Flowing From: %s To: %s"
       (if s.s_name = "" then s.s_type else s.s_name)
       target_name);
  (match s.s_type, s.s_origin_type with
   | "FILE", "BINARY" ->
     Buffer.add_string b
       (Fmt.str "\n\tsource filename was hardcoded in: (%S)" s.s_origin_name)
   | "FILE", "SOCKET" ->
     Buffer.add_string b
       (Fmt.str "\n\tsource filename originated from a SOCKET: (%S)"
          s.s_origin_name)
   | _ -> ());
  (match server with
   | Some (server_name, "BINARY", server_oname) ->
     Buffer.add_string b
       (Fmt.str
          "\n\tThis program has opened a socket for remote connections. \
           i.e. it is a server with the address: %s\n\
           \tthe server address was hardcoded in: (%S)"
          server_name server_oname)
   | Some (server_name, _, _) ->
     Buffer.add_string b
       (Fmt.str
          "\n\tThis program has opened a socket for remote connections. \
           i.e. it is a server with the address: %s"
          server_name)
   | None ->
     if String.equal tgt_origin "BINARY" then
       Buffer.add_string b
         (Fmt.str "\n\ttarget (client) socket-name was hardcoded in: (%S)"
            tgt_origin_name));
  Buffer.contents b

(* Section 10 future work #5: analyze the content being written.  If the
   bytes look like an executable (MZ / ELF / shebang magic) and they
   arrived over a socket, this is a download-and-drop. *)
let looks_executable head =
  let has_prefix p =
    String.length head >= String.length p
    && String.equal (String.sub head 0 (String.length p)) p
  in
  has_prefix "MZ" || has_prefix "\x7fELF" || has_prefix "#!"

let source_of_info (s : Facts.source_info) =
  match s.s_type with
  | "BINARY" -> Some (Taint.Source.Binary s.s_name)
  | "FILE" -> Some (Taint.Source.File s.s_name)
  | "SOCKET" -> Some (Taint.Source.Socket s.s_name)
  | "USER_INPUT" -> Some Taint.Source.User_input
  | "HARDWARE" -> Some Taint.Source.Hardware
  | _ -> None

let check_write ctx =
  let patterns =
    [ Pattern.make Facts.t_data_transfer
        [ "sources", Pattern.Var "sources";
          "target_name", Pattern.Var "tname";
          "target_type", Pattern.Var "ttype";
          "target_origin_name", Pattern.Var "toname";
          "target_origin_type", Pattern.Var "totype";
          "server", Pattern.Var "server"; "head", Pattern.Var "head";
          "time", Pattern.Var "time";
          "frequency", Pattern.Var "freq"; "pid", Pattern.Var "pid" ] ]
  in
  let action _engine bindings _facts =
    let target_type = Facts.get_sym bindings "ttype" in
    if not (String.equal target_type "STDIO") then begin
      let sources =
        match Pattern.lookup bindings "sources" with
        | Some v -> Facts.decode_sources v
        | None -> []
      in
      let target_name = Facts.get_str bindings "tname" in
      let tgt_origin = Facts.get_sym bindings "totype" in
      let tgt_origin_name = Facts.get_str bindings "toname" in
      let server =
        match Pattern.lookup bindings "server" with
        | Some v -> Facts.decode_server v
        | None -> None
      in
      let server_side = server <> None in
      let server_hardcoded =
        match server with
        | Some (_, "BINARY", _) -> true
        | Some _ | None -> false
      in
      let time = Facts.get_int bindings "time" in
      let freq = Facts.get_int bindings "freq" in
      let pid = Facts.get_int bindings "pid" in
      let rare = Context.rarely_executed ~freq ~time in
      let target_origin_ref =
        Evidence.origin ~role:"target" ~otype:target_type ~name:target_name
          ~origin_type:tgt_origin ~origin_name:tgt_origin_name
      in
      let source_origin_ref (s : Facts.source_info) =
        Evidence.origin ~role:"source" ~otype:s.s_type ~name:s.s_name
          ~origin_type:s.s_origin_type ~origin_name:s.s_origin_name
      in
      let server_origin_refs =
        match server with
        | Some (server_name, sotype, soname) ->
          [ Evidence.origin ~role:"server" ~otype:"SOCKET"
              ~name:server_name ~origin_type:sotype ~origin_name:soname ]
        | None -> []
      in
      (* content analysis: executable payload downloaded to a file *)
      let head =
        match Pattern.lookup bindings "head" with
        | Some (Expert.Value.Str h) -> h
        | _ -> ""
      in
      if
        String.equal target_type "FILE"
        && looks_executable head
        && List.exists (fun (s : Facts.source_info) -> s.s_type = "SOCKET")
             sources
      then begin
        let socket_sources =
          List.filter
            (fun (s : Facts.source_info) -> s.s_type = "SOCKET")
            sources
        in
        ctx.Context.warn
          (Warning.make ~severity:Severity.High ~rule:"check_content" ~pid
             ~time ~rare
             ~origins:
               (List.map source_origin_ref socket_sources
                @ [ target_origin_ref ])
             (Fmt.str
                "Found Write call to %s\n\
                 \tThe data appears to be EXECUTABLE content downloaded \
                 from the network"
                target_name))
      end;
      List.iter
        (fun (s : Facts.source_info) ->
          let trusted =
            match source_of_info s with
            | Some src -> Trust.is_trusted ctx.Context.trust src
            | None -> false
          in
          if not trusted then
            match
              severity_of s ~target_type ~tgt_origin ~server_hardcoded
                ~server_side
            with
            | None -> ()
            | Some severity ->
              let message =
                if String.equal target_type "FILE" then
                  file_target_message s ~target_name ~tgt_origin
                    ~tgt_origin_name
                else
                  socket_target_message s ~target_name ~tgt_origin
                    ~tgt_origin_name ~server
              in
              ctx.Context.warn
                (Warning.make ~severity ~rule:"check_write" ~pid ~time
                   ~rare
                   ~origins:
                     (source_origin_ref s :: target_origin_ref
                      :: server_origin_refs)
                   message))
        sources
    end
  in
  Engine.rule ~name:check_write_name patterns action

(* Trigger-gated (dormant) behaviour: a transfer on a {e rarely
   executed} path whose control flow was steered by remote bytes — the
   payload stayed cold until a magic sequence from a socket armed it
   (Section 4.4 infrequent-code reinforcement meeting tainted-input
   control flow).  The guard predicate lives in the pattern so transfers
   with no socket-tainted compare never produce an activation. *)
let untrusted_socket_guards ctx v =
  List.filter
    (fun (s : Facts.source_info) ->
      String.equal s.s_type "SOCKET"
      && not
           (Trust.is_trusted ctx.Context.trust (Taint.Source.Socket s.s_name)))
    (Facts.decode_sources v)

let check_trigger ctx =
  let patterns =
    [ Pattern.make Facts.t_data_transfer
        [ "guard",
          Pattern.Pred
            ( "socket-tainted-guard",
              fun v -> untrusted_socket_guards ctx v <> [] );
          "target_name", Pattern.Var "tname";
          "target_type", Pattern.Var "ttype";
          "target_origin_name", Pattern.Var "toname";
          "target_origin_type", Pattern.Var "totype";
          "time", Pattern.Var "time";
          "frequency", Pattern.Var "freq"; "pid", Pattern.Var "pid" ] ]
  in
  let action _engine bindings facts =
    let target_type = Facts.get_sym bindings "ttype" in
    let time = Facts.get_int bindings "time" in
    let freq = Facts.get_int bindings "freq" in
    if
      (not (String.equal target_type "STDIO"))
      && Context.rarely_executed ~freq ~time
    then begin
      let triggers =
        match facts with
        | f :: _ ->
          (match Fact.slot f "guard" with
           | Some v -> untrusted_socket_guards ctx v
           | None -> [])
        | [] -> []
      in
      let target_name = Facts.get_str bindings "tname" in
      let tgt_origin = Facts.get_sym bindings "totype" in
      let tgt_origin_name = Facts.get_str bindings "toname" in
      let pid = Facts.get_int bindings "pid" in
      let origins =
        List.map
          (fun (s : Facts.source_info) ->
            Evidence.origin ~role:"trigger" ~otype:s.s_type ~name:s.s_name
              ~origin_type:s.s_origin_type ~origin_name:s.s_origin_name)
          triggers
        @ [ Evidence.origin ~role:"target" ~otype:target_type
              ~name:target_name ~origin_type:tgt_origin
              ~origin_name:tgt_origin_name ]
      in
      let trigger_names =
        String.concat ", "
          (List.map (fun (s : Facts.source_info) -> s.s_name) triggers)
      in
      ctx.Context.warn
        (Warning.make ~severity:Severity.High ~rule:"check_trigger" ~pid
           ~time ~rare:true ~origins
           (Fmt.str
              "Found rarely-executed Write call to %s\n\
               \tControl flow leading here was steered by bytes from the \
               SOCKET:(%S) - trigger-gated (dormant) behaviour"
              target_name trigger_names))
    end
  in
  Engine.rule ~name:check_trigger_name patterns action

let register engine ctx =
  Engine.defrule engine (check_write ctx);
  Engine.defrule engine (check_trigger ctx)
