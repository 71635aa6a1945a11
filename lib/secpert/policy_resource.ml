open Expert

let check_clone_name = Engine.name "check_clone"
let check_alloc_name = Engine.name "check_alloc"

let check_clone ctx =
  let patterns =
    [ Pattern.make Facts.t_clone_event
        [ "total", Pattern.Var "total"; "recent", Pattern.Var "recent";
          "time", Pattern.Var "time"; "pid", Pattern.Var "pid" ] ]
  in
  let action _engine bindings _facts =
    let total = Facts.get_int bindings "total" in
    let recent = Facts.get_int bindings "recent" in
    let time = Facts.get_int bindings "time" in
    let pid = Facts.get_int bindings "pid" in
    let th = Context.thresholds in
    if recent > th.clone_rate_medium then
      ctx.Context.warn
        (Warning.make ~severity:Severity.Medium ~rule:"check_clone_rate"
           ~pid ~time
           "Found several SYS_clone calls\n\
            \tThis call was very frequent in a short period of time")
    else if total > th.clone_count_low then
      ctx.Context.warn
        (Warning.make ~severity:Severity.Low ~rule:"check_clone_count" ~pid
           ~time "Found several SYS_clone calls\n\tThis call was frequent")
  in
  Engine.rule ~name:check_clone_name patterns action

(* Section 10 future work #4: "new rules to support different types of
   resource abuse such as memory".  A process holding an outsized heap
   (Trojan.Vundo degrades the machine by consuming virtual memory) warns
   Low, and Medium beyond a higher bound. *)
let check_alloc ctx =
  let patterns =
    [ Pattern.make Facts.t_alloc_event
        [ "total", Pattern.Var "total"; "time", Pattern.Var "time";
          "pid", Pattern.Var "pid" ] ]
  in
  let action _engine bindings _facts =
    let total = Facts.get_int bindings "total" in
    let time = Facts.get_int bindings "time" in
    let pid = Facts.get_int bindings "pid" in
    let th = Context.thresholds in
    if total > th.alloc_medium then
      ctx.Context.warn
        (Warning.make ~severity:Severity.Medium ~rule:"check_alloc" ~pid
           ~time
           (Fmt.str
              "Found large memory allocation (%d bytes held)\n\
               \tThis process is consuming an unusual amount of memory"
              total))
    else if total > th.alloc_low then
      ctx.Context.warn
        (Warning.make ~severity:Severity.Low ~rule:"check_alloc" ~pid ~time
           (Fmt.str "Found growing memory allocation (%d bytes held)"
              total))
  in
  Engine.rule ~name:check_alloc_name patterns action

let register engine ctx =
  Engine.defrule engine (check_clone ctx);
  Engine.defrule engine (check_alloc ctx)
