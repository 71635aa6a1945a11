open Expert

let check_execve_name = Engine.name "check_execve"

let check_execve ctx =
  let patterns =
    [ Pattern.make Facts.t_system_call_access
        [ "system_call_name", Pattern.Lit (Value.Sym "SYS_execve");
          "resource_name", Pattern.Var "name";
          "resource_origin_type", Pattern.Var "otype";
          "resource_origin_name", Pattern.Var "oname";
          "time", Pattern.Var "time"; "frequency", Pattern.Var "freq";
          "pid", Pattern.Var "pid" ] ]
  in
  let action _engine bindings _facts =
    let name = Facts.get_str bindings "name" in
    let otype = Facts.get_sym bindings "otype" in
    let oname = Facts.get_str bindings "oname" in
    let time = Facts.get_int bindings "time" in
    let freq = Facts.get_int bindings "freq" in
    let pid = Facts.get_int bindings "pid" in
    let message origin_desc =
      Fmt.str "Found SYS_execve call (%S)\n\t(%S) originated from %s" name
        name origin_desc
    in
    let origins =
      [ Evidence.origin ~role:"resource" ~otype:"FILE" ~name
          ~origin_type:otype ~origin_name:oname ]
    in
    match otype with
    | "SOCKET" ->
      ctx.Context.warn
        (Warning.make ~severity:Severity.High ~rule:"check_execve" ~pid
           ~time ~origins
           (message (Fmt.str "a SOCKET: (%S)" oname)))
    | "BINARY" ->
      let rare = Context.rarely_executed ~freq ~time in
      let severity = if rare then Severity.Medium else Severity.Low in
      ctx.Context.warn
        (Warning.make ~severity ~rule:"check_execve" ~pid ~time ~rare
           ~origins
           (message (Fmt.str "(%S)" oname)))
    | "USER_INPUT" | "FILE" | "HARDWARE" | "UNKNOWN" | _ -> ()
  in
  Engine.rule ~name:check_execve_name patterns action

let register engine ctx = Engine.defrule engine (check_execve ctx)
