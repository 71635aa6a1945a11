let log_src = Logs.Src.create "hth.harrier" ~doc:"Harrier monitor"

module Log = (val Logs.src_log log_src)

type config = {
  track_dataflow : bool;
  track_frequency : bool;
  shortcircuit : Shortcircuit.spec list;
  clone_window : int;
  shadow_page_budget : int option;
  tier : bool;
  tier_threshold : int;
}

let default_config =
  { track_dataflow = true; track_frequency = true;
    shortcircuit = [ Shortcircuit.gethostbyname ]; clone_window = 3000;
    shadow_page_budget = None; tier = true; tier_threshold = 8 }

(* Per-process monitor state, keyed by the machine (physical equality —
   a machine is the identity of a running program instance). *)

(* Cached per-segment facts for the instruction hook: consecutive
   instructions overwhelmingly execute from the same segment, and
   resolving the segment (a list scan) plus its BINARY tag (a
   string-keyed hash lookup) on every instruction dominates the
   data-flow tracking cost otherwise. *)
type seg_info = {
  si_base : int;
  si_limit : int;
  si_tag : Taint.Tagset.t;  (* BINARY tag of the segment's image *)
  si_app : bool;  (* executable (application) segment? *)
}

(* Tier state of one basic block (keyed by leader address).  A block
   starts [Cold] and counts hits; crossing the promotion threshold it
   becomes [Ready] — carrying a compiled taint summary when dataflow is
   on — or [Rejected] when the affine analysis cannot capture its flow
   exactly, in which case it stays interpreted forever (precision is
   never traded for speed). *)
type tier_entry =
  | Cold of int ref
  | Ready of Summary.t option  (* [None]: compiled body, dataflow off *)
  | Rejected

type pstate = {
  pid : int;
  shadow : Shadow.t;
  sc : Shortcircuit.t;
  tiers : (int, tier_entry) Hashtbl.t;
  mutable pending_origin : Taint.Tagset.t option;
      (** origin of the resource name seen at the pre-syscall hook,
          attached to the fd at the post hook *)
  mutable guard : Taint.Tagset.t;
      (** operand taint of the most recent {e tainted} compare/test —
          the data that last steered a conditional branch.  Untainted
          compares (loop counters, literals) do not clear it, so a
          trigger check survives the bookkeeping between the compare
          and the armed payload's transfer. *)
  mutable seg_info : seg_info option;  (* one-entry instruction cache *)
}

type sink = Events.t -> Osim.Kernel.decision

type t = {
  cfg : config;
  space : Taint.Space.t;  (* taint arena shared by every process shadow *)
  kernel : Osim.Kernel.t;
  freq : Freq.t;
  resources : Resources.t;
  routines : (int, string) Hashtbl.t;  (* short-circuited routine entries *)
  name_origins : (string, Taint.Tagset.t) Hashtbl.t;
      (* last known origin of each resource name, for transfer sources *)
  imm_tags : (string, Taint.Tagset.t) Hashtbl.t;  (* image -> BINARY tag *)
  mutable pmap : (Vm.Machine.t * pstate) list;
  mutable cur : (Vm.Machine.t * pstate) option;
  mutable clone_times : int list;
  mutable sinks : sink list;  (* dispatch order = registration *)
  mutable count : int;
  mutable ts_compiled : int;  (* block executions run as compiled bodies *)
  mutable ts_summarized : int;  (* of those, with a taint summary applied *)
  mutable ts_deopt : int;  (* promotion rejections + runtime bail-outs *)
}

let config t = t.cfg

let subscribe t f = t.sinks <- t.sinks @ [ f ]

let event_count t = t.count

let c_unknown = Obs.Counter.make "harrier.unknown_machine"

(* [state_of t m] is [None] for a machine the monitor never saw.  That
   indicates a wiring bug, but it must not abort the whole session: the
   hooks and kernel callbacks degrade to no-ops (counted under
   [harrier.unknown_machine]) and the run is reported, not crashed. *)
let state_of t m =
  match t.cur with
  | Some (m', s) when m' == m -> Some s
  | _ ->
    (match List.find_opt (fun (m', _) -> m' == m) t.pmap with
     | Some ((_, s) as hit) ->
       t.cur <- Some hit;
       Some s
     | None ->
       Obs.Counter.incr c_unknown;
       Log.warn (fun f -> f "unknown machine: observation dropped");
       None)

(* Human-readable degradation reasons, one per affected process, in pid
   order (deterministic for reports and traces). *)
let degraded t =
  t.pmap
  |> List.filter (fun (_, s) -> Shadow.degraded s.shadow)
  |> List.map (fun (_, s) -> s)
  |> List.sort (fun a b -> compare a.pid b.pid)
  |> List.map (fun s ->
         Fmt.str
           "pid %d: shadow page budget reached (%d live pages); taint \
            saturated to conservative over-tainting"
           s.pid (Shadow.live_pages s.shadow))

let imm_tag t image =
  match Hashtbl.find_opt t.imm_tags image with
  | Some tag -> tag
  | None ->
    let tag = Taint.Tagset.singleton t.space (Taint.Source.Binary image) in
    Hashtbl.replace t.imm_tags image tag;
    tag

let c_events = Obs.Counter.make "harrier.events"

(* The trace sink: one structured "flow" line per event.  Must be the
   {e first} subscriber so the flow line is the very next trace emission
   after the event's meta was stamped (the meta's [step] is the index
   that next line will get), and so it precedes any "rule"/"warning"
   lines a policy sink emits for the same event. *)
let trace_sink e =
  if Obs.Trace.enabled () then Obs.Trace.emit "flow" (Events.to_fields e);
  Osim.Kernel.Allow

(* The metrics sink: per-run event totals, by kind. *)
let metrics_sink e =
  Obs.Counter.incr c_events;
  Obs.Counter.incr (Obs.Counter.labeled "harrier.events" (Events.kind e));
  Osim.Kernel.Allow

(* Dispatch an event to every subscriber in registration order.  All
   sinks see every event — a [Kill] verdict does not short-circuit the
   rest (so accumulators and metrics stay exact) — and the combined
   decision is [Kill] iff any sink said so. *)
let emit t e =
  t.count <- t.count + 1;
  Log.debug (fun f -> f "event %a" Events.pp e);
  List.fold_left
    (fun acc f ->
      match f e with Osim.Kernel.Kill -> Osim.Kernel.Kill | Allow -> acc)
    Osim.Kernel.Allow t.sinks

(* Notify subscribers of an event whose decision the kernel will not
   honour (e.g. SYS_accept at the post hook). *)
let emit_log_only t e = ignore (emit t e)

let meta t (s : pstate) : Events.meta =
  { pid = s.pid; time = Osim.Kernel.ticks t.kernel;
    freq = Freq.event_frequency t.freq ~pid:s.pid;
    addr =
      (match Freq.attributed_bb t.freq ~pid:s.pid with
       | Some a -> a
       | None -> 0);
    (* with a sink installed this is exactly the step of the event's
       own "flow" line (nothing emits between here and [emit]); with
       tracing off, fall back to the event ordinal *)
    step = (if Obs.Trace.enabled () then Obs.Trace.steps () else t.count) }

let hot_blocks t ~limit = Freq.hot t.freq ~limit

let string_origin s m addr =
  match Vm.Machine.read_cstring m addr with
  | exception Vm.Machine.Fault_exn _ -> Taint.Tagset.empty
  | str -> Shadow.range s.shadow addr (max 1 (String.length str))

(* ------------------------------------------------------------------ *)
(* Machine hooks                                                       *)

(* Sentinel for "no segment at this address": an empty interval, so the
   cache-hit test never matches it and lookups stay allocation-free. *)
let no_seg_info =
  { si_base = 0; si_limit = 0; si_tag = Taint.Tagset.empty; si_app = false }

let seg_info_at t s m addr =
  match s.seg_info with
  | Some si when addr >= si.si_base && addr < si.si_limit -> si
  | _ ->
    (match Vm.Machine.segment_at m addr with
     | None -> no_seg_info
     | Some seg ->
       let si =
         { si_base = seg.seg_base;
           si_limit = seg.seg_base + Array.length seg.seg_insns;
           si_tag = imm_tag t seg.seg_image;
           si_app = seg.seg_kind = Binary.Image.Executable }
       in
       s.seg_info <- Some si;
       si)

let hook_bb t m addr =
  match state_of t m with
  | None -> ()
  | Some s ->
    let is_app = (seg_info_at t s m addr).si_app in
    Freq.on_bb t.freq ~pid:s.pid ~is_app addr

let hook_insn t m addr insn =
  match state_of t m with
  | None -> ()
  | Some s ->
    (match (insn : Isa.Insn.t) with
     | Call target ->
       let dest = Vm.Machine.read_operand m Isa.Insn.W target in
       (match Hashtbl.find_opt t.routines dest with
        | Some routine ->
          Shortcircuit.on_call s.sc ~routine m s.shadow ~ret_addr:(addr + 1)
        | None -> ())
     | Ret -> Shortcircuit.on_ret s.sc m s.shadow
     | _ -> ());
    if t.cfg.track_dataflow then begin
      (* guard taint: immediates use an empty tag on purpose — only
         {e data} taint reaching a compare marks trigger-gated flow *)
      (match (insn : Isa.Insn.t) with
       | Cmp (sz, a, b) ->
         let tag =
           Taint.Tagset.union t.space
             (Dataflow.operand_tag s.shadow m Taint.Tagset.empty sz a)
             (Dataflow.operand_tag s.shadow m Taint.Tagset.empty sz b)
         in
         if not (Taint.Tagset.is_empty tag) then s.guard <- tag
       | Test (a, b) ->
         let tag =
           Taint.Tagset.union t.space
             (Dataflow.operand_tag s.shadow m Taint.Tagset.empty Isa.Insn.W a)
             (Dataflow.operand_tag s.shadow m Taint.Tagset.empty Isa.Insn.W b)
         in
         if not (Taint.Tagset.is_empty tag) then s.guard <- tag
       | _ -> ());
      Dataflow.step s.shadow m ~imm_tag:(seg_info_at t s m addr).si_tag insn
    end

(* ------------------------------------------------------------------ *)
(* Tier policy                                                         *)

let c_promoted = Obs.Counter.make "vm.blocks.promoted"
let c_deopt = Obs.Counter.make "vm.blocks.deopt"
let c_summary_applied = Obs.Counter.make "harrier.summary.applied"

let apply_summary t s m sm =
  match Summary.apply sm s.shadow m with
  | Summary.Applied g ->
    Obs.Counter.incr c_summary_applied;
    t.ts_compiled <- t.ts_compiled + 1;
    t.ts_summarized <- t.ts_summarized + 1;
    (match g with Some tag -> s.guard <- tag | None -> ());
    true
  | Summary.Deopt ->
    (* an address left the block's proven bounds this time around: the
       interpreter runs the block so the fault (or wrapped access)
       lands at exactly the right instruction; the block stays Ready *)
    Obs.Counter.incr c_deopt;
    t.ts_deopt <- t.ts_deopt + 1;
    false

let promote t s (seg : Vm.Machine.segment) addr len m =
  Obs.Counter.incr c_promoted;
  if not t.cfg.track_dataflow then begin
    Hashtbl.replace s.tiers addr (Ready None);
    t.ts_compiled <- t.ts_compiled + 1;
    true
  end
  else
    match Isa.Block.analyze seg.seg_insns ~pos:(addr - seg.seg_base) ~len with
    | None ->
      (* flow not exactly capturable: permanent deopt to interpretation *)
      Obs.Counter.incr c_deopt;
      t.ts_deopt <- t.ts_deopt + 1;
      Hashtbl.replace s.tiers addr Rejected;
      false
    | Some flow ->
      let sm =
        Summary.make ~space:t.space ~imm_tag:(imm_tag t seg.seg_image) flow
      in
      Hashtbl.replace s.tiers addr (Ready (Some sm));
      apply_summary t s m sm

(* The [on_block] hook: the VM offers a straight-line body before
   running it; answering [true] commits this execution to the compiled
   tier, with this hook's summary application standing in for the
   per-instruction dataflow hooks.  Bodies contain no control transfer,
   so shortcircuit call/return tracking is unaffected. *)
let hook_block t m seg addr len =
  match state_of t m with
  | None -> false
  | Some s ->
    (match Hashtbl.find_opt s.tiers addr with
     | Some (Ready None) ->
       t.ts_compiled <- t.ts_compiled + 1;
       true
     | Some (Ready (Some sm)) -> apply_summary t s m sm
     | Some Rejected -> false
     | Some (Cold n) ->
       incr n;
       if !n >= t.cfg.tier_threshold then promote t s seg addr len m
       else false
     | None ->
       if t.cfg.tier_threshold <= 1 then promote t s seg addr len m
       else begin
         Hashtbl.replace s.tiers addr (Cold (ref 1));
         false
       end)

let tier_stats t = (t.ts_compiled, t.ts_summarized, t.ts_deopt)

(* ------------------------------------------------------------------ *)
(* Kernel callbacks                                                    *)

let on_process_start t (p : Osim.Process.t) =
  t.pmap <- List.filter (fun (_, s) -> s.pid <> p.pid) t.pmap;
  t.cur <- None;
  let s =
    { pid = p.pid;
      shadow =
        Shadow.create ?page_budget:t.cfg.shadow_page_budget ~space:t.space ();
      sc = Shortcircuit.create t.cfg.shortcircuit;
      tiers = Hashtbl.create 32; pending_origin = None;
      guard = Taint.Tagset.empty; seg_info = None }
  in
  t.pmap <- (p.machine, s) :: t.pmap;
  Freq.reset t.freq ~pid:p.pid;
  (* argv / environment live on the initial stack: USER_INPUT *)
  let esp = Vm.Machine.get_reg p.machine ESP in
  Shadow.set_range s.shadow esp
    (Osim.Kernel.stack_top - esp)
    (Taint.Tagset.singleton t.space Taint.Source.User_input)

let on_image_load t (p : Osim.Process.t) (img : Binary.Image.t) =
  (match state_of t p.machine with
   | None -> ()
   | Some s ->
     (* mappings changed; drop the instruction-hook segment cache *)
     s.seg_info <- None;
     let tag = imm_tag t img.path in
     List.iter
       (fun (sec : Binary.Section.t) ->
         Shadow.set_range s.shadow sec.addr (Binary.Section.size sec) tag)
       img.sections);
  List.iter
    (fun (e : Binary.Symbol.export) ->
      if
        List.exists
          (fun (spec : Shortcircuit.spec) ->
            String.equal spec.routine e.sym_name)
          t.cfg.shortcircuit
      then Hashtbl.replace t.routines e.sym_addr e.sym_name)
    img.exports

let on_fork t ~(parent : Osim.Process.t) ~(child : Osim.Process.t) =
  match state_of t parent.machine with
  | None -> ()
  | Some ps ->
    let cs =
      { pid = child.pid; shadow = Shadow.clone ps.shadow;
        sc = Shortcircuit.clone ps.sc;
        (* fresh tier table: the child re-warms its own hit counts
           (summaries are cheap to rebuild and hit counts are per
           process by design) *)
        tiers = Hashtbl.create 32; pending_origin = ps.pending_origin;
        guard = ps.guard; seg_info = ps.seg_info }
    in
    (* the child's eax holds fork's result, written by the kernel *)
    Shadow.set_reg cs.shadow EAX Taint.Tagset.empty;
    t.pmap <- (child.machine, cs) :: t.pmap;
    Freq.inherit_from t.freq ~parent:parent.pid ~child:child.pid;
    Resources.inherit_from t.resources ~parent:parent.pid ~child:child.pid

let file_resource name origin : Events.resource =
  { r_kind = Events.R_file; r_name = name; r_origin = origin }

let sock_resource name origin : Events.resource =
  { r_kind = Events.R_socket; r_name = name; r_origin = origin }

let on_pre_syscall t (p : Osim.Process.t) (sc : Osim.Syscall.t) =
  match state_of t p.machine with
  | None -> Osim.Kernel.Allow
  | Some s ->
  let m = p.machine in
  let pid = s.pid in
  match sc with
  | Execve { path_addr; path; argv } ->
    let origin = string_origin s m path_addr in
    emit t (Events.Exec { path = file_resource path origin; argv;
                          meta = meta t s })
  | Fork ->
    let now = Osim.Kernel.ticks t.kernel in
    t.clone_times <-
      now :: List.filter (fun tm -> now - tm <= t.cfg.clone_window)
               t.clone_times;
    emit t
      (Events.Clone
         { total = Osim.Kernel.clone_total t.kernel + 1;
           recent = List.length t.clone_times;
           window = t.cfg.clone_window; meta = meta t s })
  | Open { path_addr; path; _ } | Creat { path_addr; path } ->
    let origin = string_origin s m path_addr in
    s.pending_origin <- Some origin;
    emit t
      (Events.Access
         { call = Osim.Syscall.name sc; res = file_resource path origin;
           meta = meta t s })
  | Connect { addr_ptr; addr_name; _ } ->
    (* the address identity is the 4 IP bytes; the port word often mixes
       in immediate (BINARY) tags that would drown a user-given host *)
    let origin = Shadow.range s.shadow addr_ptr 4 in
    s.pending_origin <- Some origin;
    emit t
      (Events.Access
         { call = "SYS_connect"; res = sock_resource addr_name origin;
           meta = meta t s })
  | Bind { fd; addr_ptr; port } ->
    let origin = Shadow.range s.shadow addr_ptr 4 in
    let local = Fmt.str "LocalHost:%d" port in
    Resources.bind_origin t.resources ~pid ~fd origin local;
    emit t
      (Events.Access
         { call = "SYS_bind"; res = sock_resource local origin;
           meta = meta t s })
  | Brk { addr } ->
    if addr <> 0 then
      emit t
        (Events.Alloc
           { requested = addr;
             total = max 0 (addr - Osim.Process.initial_brk);
             meta = meta t s })
    else Osim.Kernel.Allow
  | Write { fd; res; buf; len; _ } ->
    let data =
      if t.cfg.track_dataflow then Shadow.range s.shadow buf len
      else Taint.Tagset.empty
    in
    let head =
      match Vm.Machine.read_bytes m buf (min len 8) with
      | exception Vm.Machine.Fault_exn _ -> ""
      | h -> h
    in
    let target = Resources.resource_of t.resources ~pid ~fd ~fallback:res in
    let via_server = Resources.server_of t.resources ~pid ~fd in
    let annotate tags =
      List.map
        (fun src ->
          let origin =
            match Taint.Source.resource_name src with
            | Some name ->
              (match Hashtbl.find_opt t.name_origins name with
               | Some o -> o
               | None -> Taint.Tagset.empty)
            | None -> Taint.Tagset.empty
          in
          src, origin)
        (Taint.Tagset.to_list tags)
    in
    let sources = annotate data in
    let guard =
      if t.cfg.track_dataflow then annotate s.guard else []
    in
    emit t
      (Events.Transfer
         { call = "SYS_write"; data; head; sources; guard; target;
           via_server; len; meta = meta t s })
  | Read _ | Close _ | Exit _ | Time | Getpid | Dup _ | Nanosleep _
  | Socket | Listen _ | Accept _ | Unknown _ -> Osim.Kernel.Allow

let on_post_syscall t (p : Osim.Process.t) (sc : Osim.Syscall.t) ~result =
  match state_of t p.machine with
  | None -> ()
  | Some s ->
  let pid = s.pid in
  (* the syscall result in eax was written by the kernel *)
  Shadow.set_reg s.shadow EAX Taint.Tagset.empty;
  match sc with
  | Read { buf; res; _ } when result > 0 && t.cfg.track_dataflow ->
    let tag =
      match res with
      | Osim.Syscall.R_stdin ->
        Taint.Tagset.singleton t.space Taint.Source.User_input
      | R_file path -> Taint.Tagset.singleton t.space (Taint.Source.File path)
      | R_sock { sr_peer = Some peer; _ } ->
        Taint.Tagset.singleton t.space (Taint.Source.Socket peer)
      | R_sock _ ->
        Taint.Tagset.singleton t.space (Taint.Source.Socket "remote")
      | R_stdout | R_stderr | R_unknown -> Taint.Tagset.empty
    in
    Shadow.set_range s.shadow buf result tag
  | Read _ -> ()
  | (Open { path; _ } | Creat { path; _ }) when result >= 0 ->
    let origin =
      Option.value s.pending_origin ~default:Taint.Tagset.empty
    in
    s.pending_origin <- None;
    Hashtbl.replace t.name_origins path origin;
    Resources.set t.resources ~pid ~fd:result
      { e_kind = Events.R_file; e_name = path; e_origin = origin;
        e_server = None }
  | Connect { fd; addr_name; _ } when result = 0 ->
    let origin =
      Option.value s.pending_origin ~default:Taint.Tagset.empty
    in
    s.pending_origin <- None;
    Hashtbl.replace t.name_origins addr_name origin;
    Resources.set t.resources ~pid ~fd
      { e_kind = Events.R_socket; e_name = addr_name; e_origin = origin;
        e_server = None }
  | Accept { fd; port; peer; _ } when result >= 0 ->
    let bound_origin, local =
      match Resources.bound t.resources ~pid ~fd with
      | Some (origin, local) -> origin, local
      | None -> Taint.Tagset.empty, Fmt.str "LocalHost:%d" port
    in
    let peer_name = Option.value peer ~default:"remote" in
    Hashtbl.replace t.name_origins peer_name bound_origin;
    let server = sock_resource local bound_origin in
    Resources.set t.resources ~pid ~fd:result
      { e_kind = Events.R_socket; e_name = peer_name;
        e_origin = Taint.Tagset.empty; e_server = Some server };
    emit_log_only t
      (Events.Access
         { call = "SYS_accept";
           res = sock_resource peer_name Taint.Tagset.empty;
           meta = meta t s })
  | Dup { fd; _ } when result >= 0 ->
    (match Resources.get t.resources ~pid ~fd with
     | Some entry -> Resources.set t.resources ~pid ~fd:result entry
     | None -> ())
  | Close { fd; _ } -> Resources.remove t.resources ~pid ~fd
  | Open _ | Creat _ | Connect _ | Accept _ | Dup _ | Execve _ | Exit _
  | Fork | Write _ | Time | Getpid | Nanosleep _ | Brk _ | Socket
  | Bind _ | Listen _ | Unknown _ -> ()

let attach ?(config = default_config) kernel =
  let t =
    { cfg = config; space = Taint.Space.create (); kernel; freq = Freq.create ();
      resources = Resources.create (); routines = Hashtbl.create 8;
      name_origins = Hashtbl.create 32;
      imm_tags = Hashtbl.create 8; pmap = []; cur = None; clone_times = [];
      sinks = []; count = 0; ts_compiled = 0; ts_summarized = 0;
      ts_deopt = 0 }
  in
  let hooks = Osim.Kernel.hooks kernel in
  if config.track_dataflow || config.shortcircuit <> [] then
    hooks.pre_insn <- hook_insn t;
  if config.track_frequency then hooks.on_bb <- hook_bb t;
  (* tiering is disabled outright under a shadow page budget: summary
     application order would interact with the sticky overflow set, and
     degraded runs are the slow path anyway *)
  if config.tier && config.shadow_page_budget = None then
    hooks.on_block <- hook_block t;
  let mon = Osim.Kernel.monitor kernel in
  mon.on_process_start <- on_process_start t;
  mon.on_image_load <- on_image_load t;
  mon.on_fork <- on_fork t;
  mon.on_pre_syscall <- on_pre_syscall t;
  mon.on_post_syscall <- (fun p sc ~result -> on_post_syscall t p sc ~result);
  t

let instrumentation_table =
  [ "Information Flow", "Instruction",
    "Data Flow (reg/mem, mem/mem, reg/reg)";
    "Information Flow", "Instruction", "Hardware Information (CPUID)";
    "Code Frequency", "Basic Block", "BB frequency";
    "Execution Flow", "Instruction", "System Calls (execve)";
    "Resource Abuse", "Instruction", "System Calls (clone)";
    "Information Flow", "Instruction", "System Calls (IO read/write)";
    "Information Flow", "Section", "Binary load";
    "Information Flow", "Image", "Binary load";
    "Information Flow", "Instruction", "Initial stack location";
    "Information Flow", "Routine",
    "'Short Circuit' Data Flow (gethostbyname)" ]
