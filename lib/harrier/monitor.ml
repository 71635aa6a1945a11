let log_src = Logs.Src.create "hth.harrier" ~doc:"Harrier monitor"

module Log = (val Logs.src_log log_src)

type config = {
  track_dataflow : bool;
  track_frequency : bool;
  shortcircuit : Shortcircuit.spec list;
  shadow_page_budget : int option;
  tier : bool;
}

let default_config =
  { track_dataflow = true; track_frequency = true;
    shortcircuit = [ Shortcircuit.gethostbyname ]; shadow_page_budget = None;
    tier = false }

(* Ticks within which clones count as "recent" for the clone events. *)
let recent_clone_ticks = 3000

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

(* All Harrier state of one monitored process (Fig. 6's DataFlow
   structures, its block counts and fd table).  The record is bound into
   its machine's hooks when the process starts or forks, so the hot path
   never looks it up. *)
type pstate = {
  pid : int;
  shadow : Shadow.t;
  sc : Shortcircuit.t;
  freq : Freq.t;
  res : Resources.t;
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

type t = {
  cfg : config;
  space : Taint.Tagset.space;
      (* taint arena shared by every process shadow *)
  kernel : Osim.Kernel.t;
  procs : (int, pstate) Hashtbl.t;
      (* pid -> record, for the kernel callbacks and the reports *)
  routines : (int, string) Hashtbl.t;  (* short-circuited routine entries *)
  name_origins : (string, Taint.Tagset.t) Hashtbl.t;
      (* last known origin of each resource name, for transfer sources *)
  imm_tags : (string, Taint.Tagset.t) Hashtbl.t;  (* image -> BINARY tag *)
  mutable clone_times : int list;
  judge : Events.t -> Osim.Kernel.decision;  (* Secpert's verdict *)
  mutable count : int;
}

let config t = t.cfg

let event_count t = t.count

(* The record of [p].  Every process the kernel runs went through
   [on_process_start] or [on_fork] first, so a miss is a wiring bug: it
   raises, and the engine reports the session as a crash rather than a
   run that silently dropped observations. *)
let proc t (p : Osim.Process.t) =
  match Hashtbl.find t.procs p.pid with
  | s -> s
  | exception Not_found ->
    invalid_arg (Fmt.str "Harrier.Monitor: pid %d was never started" p.pid)

(* Human-readable degradation reasons, one per affected process, in pid
   order (deterministic for reports and traces). *)
let degraded t =
  Hashtbl.fold
    (fun _ s acc -> if Shadow.degraded s.shadow then s :: acc else acc)
    t.procs []
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
let c_kinds = Array.map (Obs.Counter.labeled "harrier.events") Events.kinds

(* One event's whole path: its "flow" line, its counts, then the
   verdict.  The flow line is the very next trace emission after [meta]
   stamped the event (the meta's [step] is the index that line gets),
   and it precedes every "rule"/"warning" line the judge emits for the
   same event. *)
let emit t e =
  t.count <- t.count + 1;
  Log.debug (fun f -> f "event %a" Events.pp e);
  if Obs.Trace.enabled () then Obs.Trace.emit "flow" (Events.to_fields e);
  Obs.Counter.incr c_events;
  Obs.Counter.incr c_kinds.(Events.kind_index e);
  t.judge e

(* Emit an event whose decision the kernel will not honour (e.g.
   SYS_accept at the post hook). *)
let emit_log_only t e = ignore (emit t e)

let meta t (s : pstate) : Events.meta =
  { pid = s.pid; time = Osim.Kernel.ticks t.kernel;
    freq = Freq.event_frequency s.freq;
    addr =
      (match Freq.attributed_bb s.freq with
       | Some a -> a
       | None -> 0);
    (* with tracing on this is exactly the step of the event's own
       "flow" line (nothing emits between here and [emit]); with
       tracing off, fall back to the event ordinal *)
    step = (if Obs.Trace.enabled () then Obs.Trace.steps () else t.count) }

(* Count descending, then pid and address ascending. *)
let hot_blocks t ~limit =
  Hashtbl.fold
    (fun pid s acc ->
      List.fold_left
        (fun acc (addr, n) -> (pid, addr, n) :: acc)
        acc (Freq.blocks s.freq))
    t.procs []
  |> List.sort (fun (p1, a1, n1) (p2, a2, n2) ->
         compare (n2, p1, a1) (n1, p2, a2))
  |> List.filteri (fun i _ -> i < limit)

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

let hook_bb t s m addr =
  Freq.on_bb s.freq ~is_app:(seg_info_at t s m addr).si_app addr

let hook_insn t s m addr insn =
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
    let guard =
      Dataflow.step s.shadow m ~imm_tag:(seg_info_at t s m addr).si_tag insn
    in
    if not (Taint.Tagset.is_empty guard) then s.guard <- guard
  end

(* [s]'s machine hooks: closures over the record, written at full arity
   so no call allocates, chosen by the config. *)
let hooks t s : Vm.Machine.hooks =
  let none = Vm.Machine.no_hooks in
  { pre_insn =
      (if t.cfg.track_dataflow || t.cfg.shortcircuit <> [] then
         fun m addr insn -> hook_insn t s m addr insn
       else none.pre_insn);
    on_bb =
      (if t.cfg.track_frequency then fun m addr -> hook_bb t s m addr
       else none.on_bb) }

let bind t (p : Osim.Process.t) s =
  Hashtbl.replace t.procs p.pid s;
  Vm.Machine.set_hooks p.machine (hooks t s)

(* ------------------------------------------------------------------ *)
(* Kernel callbacks                                                    *)

(* Spawn and execve: a fresh record, except that execve keeps the fd
   table, as the kernel keeps the fds. *)
let on_process_start t (p : Osim.Process.t) =
  let res =
    match Hashtbl.find_opt t.procs p.pid with
    | Some old -> old.res
    | None -> Resources.create ()
  in
  let s =
    { pid = p.pid;
      shadow =
        Shadow.create ?page_budget:t.cfg.shadow_page_budget ~space:t.space ();
      sc = Shortcircuit.create t.cfg.shortcircuit; freq = Freq.create ();
      res; pending_origin = None;
      guard = Taint.Tagset.empty; seg_info = None }
  in
  bind t p s;
  (* argv / environment live on the initial stack: USER_INPUT *)
  let esp = Vm.Machine.get_reg p.machine ESP in
  Shadow.set_range s.shadow esp
    (Osim.Kernel.stack_top - esp)
    (Taint.Tagset.singleton t.space Taint.Source.User_input)

let on_image_load t p (img : Binary.Image.t) =
  let s = proc t p in
  (* mappings changed; drop the instruction-hook segment cache *)
  s.seg_info <- None;
  let tag = imm_tag t img.path in
  List.iter
    (fun (sec : Binary.Section.t) ->
      Shadow.set_range s.shadow sec.addr (Binary.Section.size sec) tag)
    img.sections;
  List.iter
    (fun (e : Binary.Symbol.export) ->
      if
        List.exists
          (fun (spec : Shortcircuit.spec) ->
            String.equal spec.routine e.sym_name)
          t.cfg.shortcircuit
      then Hashtbl.replace t.routines e.sym_addr e.sym_name)
    img.exports

(* Fork: the child's record copies the parent's, and is bound into the
   child's machine, which shares the parent's hooks until then. *)
let on_fork t ~parent ~(child : Osim.Process.t) =
  let ps = proc t parent in
  let cs =
    { pid = child.pid; shadow = Shadow.clone ps.shadow;
      sc = Shortcircuit.clone ps.sc; freq = Freq.copy ps.freq;
      res = Resources.copy ps.res; pending_origin = ps.pending_origin;
      guard = ps.guard; seg_info = ps.seg_info }
  in
  (* the child's eax holds fork's result, written by the kernel *)
  Shadow.set_reg cs.shadow EAX Taint.Tagset.empty;
  bind t child cs

let file_resource name origin : Events.resource =
  { r_kind = Events.R_file; r_name = name; r_origin = origin }

let sock_resource name origin : Events.resource =
  { r_kind = Events.R_socket; r_name = name; r_origin = origin }

let on_pre_syscall t (p : Osim.Process.t) (sc : Osim.Syscall.t) =
  let s = proc t p in
  let m = p.machine in
  match sc with
  | Execve { path_addr; path; argv } ->
    let origin = string_origin s m path_addr in
    emit t (Events.Exec { path = file_resource path origin; argv;
                          meta = meta t s })
  | Fork ->
    let now = Osim.Kernel.ticks t.kernel in
    t.clone_times <-
      now
      :: List.filter (fun tm -> now - tm <= recent_clone_ticks) t.clone_times;
    emit t
      (Events.Clone
         { total = Osim.Kernel.clone_total t.kernel + 1;
           recent = List.length t.clone_times;
           window = recent_clone_ticks; meta = meta t s })
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
    Resources.bind_origin s.res ~fd origin local;
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
    let target = Resources.resource_of s.res ~fd ~fallback:res in
    let via_server = Resources.server_of s.res ~fd in
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

let on_post_syscall t p (sc : Osim.Syscall.t) ~result =
  let s = proc t p in
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
    Resources.set s.res ~fd:result
      { e_kind = Events.R_file; e_name = path; e_origin = origin;
        e_server = None }
  | Connect { fd; addr_name; _ } when result = 0 ->
    let origin =
      Option.value s.pending_origin ~default:Taint.Tagset.empty
    in
    s.pending_origin <- None;
    Hashtbl.replace t.name_origins addr_name origin;
    Resources.set s.res ~fd
      { e_kind = Events.R_socket; e_name = addr_name; e_origin = origin;
        e_server = None }
  | Accept { fd; port; peer; _ } when result >= 0 ->
    let bound_origin, local =
      match Resources.bound s.res ~fd with
      | Some (origin, local) -> origin, local
      | None -> Taint.Tagset.empty, Fmt.str "LocalHost:%d" port
    in
    let peer_name = Option.value peer ~default:"remote" in
    Hashtbl.replace t.name_origins peer_name bound_origin;
    let server = sock_resource local bound_origin in
    Resources.set s.res ~fd:result
      { e_kind = Events.R_socket; e_name = peer_name;
        e_origin = Taint.Tagset.empty; e_server = Some server };
    emit_log_only t
      (Events.Access
         { call = "SYS_accept";
           res = sock_resource peer_name Taint.Tagset.empty;
           meta = meta t s })
  | Dup { fd; _ } when result >= 0 ->
    (match Resources.get s.res ~fd with
     | Some entry -> Resources.set s.res ~fd:result entry
     | None -> ())
  | Close { fd; _ } when result = 0 ->
    (* a failed close (an injected fault) leaves the fd open *)
    Resources.remove s.res ~fd
  | Open _ | Creat _ | Connect _ | Accept _ | Dup _ | Close _ | Execve _
  | Exit _ | Fork | Write _ | Time | Getpid | Nanosleep _ | Brk _ | Socket
  | Bind _ | Listen _ | Unknown _ -> ()

let attach ?(config = default_config) ~judge kernel =
  let t =
    { cfg = config; space = Taint.Tagset.make_space (); kernel;
      procs = Hashtbl.create 8; routines = Hashtbl.create 8;
      name_origins = Hashtbl.create 32; imm_tags = Hashtbl.create 8;
      clone_times = []; judge; count = 0 }
  in
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
