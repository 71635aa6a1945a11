(* One fleet session: a job description and its run on the fleet's
   shared engines.  The supervisor owns all shared state (queue, running
   table, reorder buffer); this module owns none. *)

type job = {
  j_engine : string;
  j_setup : Hth.Engine.setup;
  j_budgets : Hth.Engine.budgets;
  j_fault : Osim.Fault.plan;
  j_trace : bool;
  j_store : bool;
  j_deadline : float option;  (* wall-clock seconds *)
}

let job ?(engine = "default") ?(budgets = Hth.Engine.no_budgets)
    ?(fault = Osim.Fault.none) ?(trace = false) ?(store = false) ?deadline
    setup =
  { j_engine = engine; j_setup = setup; j_budgets = budgets;
    j_fault = fault; j_trace = trace; j_store = store; j_deadline = deadline }

let with_deadline j seconds = { j with j_deadline = Some seconds }

let deadline j = j.j_deadline

type outcome = {
  o_seq : int;
  o_trace : string option;
  o_segment : Store.Segment.sealed option;
  o_result : (Hth.Engine.result, Hth.Error.t) Stdlib.result;
}

(* Runs on a worker domain.  Every failure path becomes an ordinary
   outcome at [seq], so the release order never has a hole and the
   worker survives.  An exception inside the session keeps whatever
   trace it wrote; one in capture or seal loses the trace. *)
let run engines seq j =
  let outcome ?trace ?segment result =
    { o_seq = seq; o_trace = trace; o_segment = segment; o_result = result }
  in
  let crash exn =
    Error (Hth.Error.Crash { phase = "fleet"; exn = Printexc.to_string exn })
  in
  match List.assoc_opt j.j_engine engines with
  | None ->
    outcome
      (Error
         (Hth.Error.Policy_error
            (Printf.sprintf "fleet: unknown engine %S" j.j_engine)))
  | Some eng ->
    (try
       let buf = if j.j_trace then Some (Buffer.create 4096) else None in
       let writer =
         if j.j_store then Some (Store.Segment.Writer.create ()) else None
       in
       (* the engine owns the sink lifecycle ([?trace]); with both
          capture kinds requested, the writer's sink tees its chunks
          into the buffer, so the bytes are identical by construction *)
       let trace =
         match (buf, writer) with
         | None, None -> None
         | Some b, None -> Some (Obs.Trace.buffer_target b)
         | tee, Some w -> Some (Store.Segment.Writer.target ?tee w)
       in
       let result =
         try
           Hth.Engine.run_outcome eng ~budgets:j.j_budgets ~fault:j.j_fault
             ?trace j.j_setup
         with exn -> crash exn
       in
       outcome
         ?trace:(Option.map Buffer.contents buf)
         ?segment:(Option.map Store.Segment.Writer.seal writer)
         result
     with exn -> outcome (crash exn))
