let text =
  {|
;; ===================================================================
;; Secpert security policy (Section 4), textual CLIPS form.
;; ===================================================================

;; ---------------- execution flow (4.1) ----------------
(defrule check_execve "warn on execve with suspicious name provenance"
  (system_call_access (system_call_name SYS_execve)
    (resource_name ?name)
    (resource_origin_type ?otype) (resource_origin_name ?oname)
    (time ?time) (frequency ?freq) (pid ?pid))
  (test (or (eq ?otype BINARY) (eq ?otype SOCKET)))
  =>
  (bind ?sev LOW)
  (bind ?rare FALSE)
  (if (and (eq ?otype BINARY) (rarely ?freq ?time)) then
    (bind ?sev MEDIUM)
    (bind ?rare TRUE))
  (if (eq ?otype SOCKET) then (bind ?sev HIGH))
  (warn check_execve ?sev ?pid ?time ?rare
    "Found SYS_execve call (" ?name ") originated from " ?otype
    " (" ?oname ")"))

;; ---------------- resource abuse (4.2) ----------------
(defrule check_clone_rate
  (clone_event (recent ?r) (time ?time) (pid ?pid))
  (test (> ?r ?*CLONE_RATE*))
  =>
  (warn check_clone_rate MEDIUM ?pid ?time FALSE
    "Found several SYS_clone calls - very frequent in a short period"))

(defrule check_clone_count
  (clone_event (total ?t) (recent ?r) (time ?time) (pid ?pid))
  (test (and (> ?t ?*CLONE_COUNT*) (<= ?r ?*CLONE_RATE*)))
  =>
  (warn check_clone_count LOW ?pid ?time FALSE
    "Found several SYS_clone calls - frequent"))

(defrule check_alloc_medium
  (alloc_event (total ?t) (time ?time) (pid ?pid))
  (test (> ?t ?*ALLOC_MEDIUM*))
  =>
  (warn check_alloc MEDIUM ?pid ?time FALSE
    "Found large memory allocation (" ?t " bytes held)"))

(defrule check_alloc_low
  (alloc_event (total ?t) (time ?time) (pid ?pid))
  (test (and (> ?t ?*ALLOC_LOW*) (<= ?t ?*ALLOC_MEDIUM*)))
  =>
  (warn check_alloc LOW ?pid ?time FALSE
    "Found growing memory allocation (" ?t " bytes held)"))

;; ---------------- information flow (4.3) ----------------
;; hard-coded payload dropped into a hard-coded or remotely-named file
(defrule wf_binary_to_file
  ?x <- (data_transfer (target_type FILE) (target_name ?tn)
    (target_origin_type ?tot)
    (time ?time) (frequency ?freq) (pid ?pid))
  (transfer_source (xfer ?x) (s_type BINARY) (s_name ?sn))
  (test (or (eq ?tot BINARY) (eq ?tot SOCKET)))
  (test (not (trusted-source BINARY ?sn)))
  =>
  (warn check_write HIGH ?pid ?time (rarely ?freq ?time)
    "Found Write call to " ?tn " - hard-coded data from (" ?sn ")"))

;; hard-coded payload to a socket behind a hard-coded backdoor server
(defrule wf_binary_to_server_socket
  ?x <- (data_transfer (target_type SOCKET) (target_name ?tn)
    (server_side yes) (server_origin_type BINARY) (server_name ?srv)
    (time ?time) (frequency ?freq) (pid ?pid))
  (transfer_source (xfer ?x) (s_type BINARY) (s_name ?sn))
  (test (not (trusted-source BINARY ?sn)))
  =>
  (warn check_write HIGH ?pid ?time (rarely ?freq ?time)
    "Found Write call to " ?tn " - hard-coded data through server " ?srv))

;; hard-coded payload to a hard-coded client socket
(defrule wf_binary_to_client_socket
  ?x <- (data_transfer (target_type SOCKET) (target_name ?tn)
    (target_origin_type BINARY) (server_side ?ss)
    (server_origin_type ?sot)
    (time ?time) (frequency ?freq) (pid ?pid))
  (transfer_source (xfer ?x) (s_type BINARY) (s_name ?sn))
  (test (not (and (eq ?ss yes) (eq ?sot BINARY))))
  (test (not (trusted-source BINARY ?sn)))
  =>
  (warn check_write LOW ?pid ?time (rarely ?freq ?time)
    "Found Write call to hard-coded socket " ?tn " from (" ?sn ")"))

;; file/socket flows: a resource *name* arriving over a socket is High
(defrule wf_remote_named
  ?x <- (data_transfer (target_name ?tn) (target_type ?tt)
    (target_origin_type ?tot)
    (time ?time) (frequency ?freq) (pid ?pid))
  (transfer_source (xfer ?x) (s_type ?st) (s_name ?sn)
    (s_origin_type ?sot))
  (test (or (eq ?tt FILE) (eq ?tt SOCKET)))
  (test (or (eq ?st FILE) (eq ?st SOCKET)))
  (test (or (eq ?sot SOCKET) (eq ?tot SOCKET)))
  (test (not (trusted-source ?st ?sn)))
  =>
  (warn check_write HIGH ?pid ?time (rarely ?freq ?time)
    "Found Write call Data Flowing From: " ?sn " To: " ?tn
    " - remotely-named resource"))

;; both resource names hard-coded
(defrule wf_both_hardcoded
  ?x <- (data_transfer (target_name ?tn) (target_type ?tt)
    (target_origin_type BINARY) (target_origin_name ?ton)
    (time ?time) (frequency ?freq) (pid ?pid))
  (transfer_source (xfer ?x) (s_type ?st) (s_name ?sn)
    (s_origin_type BINARY) (s_origin_name ?son))
  (test (or (eq ?tt FILE) (eq ?tt SOCKET)))
  (test (or (eq ?st FILE) (eq ?st SOCKET)))
  (test (not (trusted-source ?st ?sn)))
  =>
  (warn check_write HIGH ?pid ?time (rarely ?freq ?time)
    "Found Write call Data Flowing From: " ?sn " To: " ?tn
    " - source hardcoded in (" ?son ") and target hardcoded in ("
    ?ton ")"))

;; exactly one name hard-coded
(defrule wf_one_hardcoded
  ?x <- (data_transfer (target_name ?tn) (target_type ?tt)
    (target_origin_type ?tot)
    (time ?time) (frequency ?freq) (pid ?pid))
  (transfer_source (xfer ?x) (s_type ?st) (s_name ?sn)
    (s_origin_type ?sot))
  (test (or (eq ?tt FILE) (eq ?tt SOCKET)))
  (test (or (eq ?st FILE) (eq ?st SOCKET)))
  (test (and (neq ?sot SOCKET) (neq ?tot SOCKET)))
  (test (or (and (eq ?sot BINARY) (neq ?tot BINARY))
            (and (neq ?sot BINARY) (eq ?tot BINARY))))
  (test (not (trusted-source ?st ?sn)))
  =>
  (warn check_write LOW ?pid ?time (rarely ?freq ?time)
    "Found Write call Data Flowing From: " ?sn " To: " ?tn
    " - one resource name hardcoded"))

;; any tracked file/socket flow through a hard-coded backdoor server
(defrule wf_server_escalation
  ?x <- (data_transfer (target_name ?tn) (target_type ?tt)
    (server_side yes) (server_origin_type BINARY) (server_name ?srv)
    (time ?time) (frequency ?freq) (pid ?pid))
  (transfer_source (xfer ?x) (s_type ?st) (s_name ?sn))
  (test (or (eq ?tt FILE) (eq ?tt SOCKET)))
  (test (or (eq ?st FILE) (eq ?st SOCKET)))
  (test (not (trusted-source ?st ?sn)))
  =>
  (warn check_write HIGH ?pid ?time (rarely ?freq ?time)
    "Found Write call From: " ?sn " To: " ?tn
    " - through server " ?srv " whose address was hardcoded"))

;; hardware-derived data into a hard-coded resource
(defrule wf_hardware
  ?x <- (data_transfer (target_name ?tn) (target_type ?tt)
    (target_origin_type ?tot) (server_side ?ss)
    (server_origin_type ?sot)
    (time ?time) (frequency ?freq) (pid ?pid))
  (transfer_source (xfer ?x) (s_type HARDWARE))
  (test (or (eq ?tt FILE) (eq ?tt SOCKET)))
  (test (or (eq ?tot BINARY) (and (eq ?ss yes) (eq ?sot BINARY))))
  =>
  (warn check_write HIGH ?pid ?time (rarely ?freq ?time)
    "Found Write call to " ?tn " - hardware information leaked"))

;; user input exfiltrated to a hard-coded socket
(defrule wf_user_exfiltration
  ?x <- (data_transfer (target_type SOCKET) (target_name ?tn)
    (target_origin_type ?tot) (server_side ?ss)
    (server_origin_type ?sot)
    (time ?time) (frequency ?freq) (pid ?pid))
  (transfer_source (xfer ?x) (s_type USER_INPUT))
  (test (or (eq ?tot BINARY) (and (eq ?ss yes) (eq ?sot BINARY))))
  =>
  (warn check_write LOW ?pid ?time (rarely ?freq ?time)
    "Found Write call to hard-coded socket " ?tn
    " - user input exfiltrated"))

;; content analysis: executable bytes downloaded into a file
(defrule wf_content
  ?x <- (data_transfer (target_type FILE) (target_name ?tn)
    (head ?head) (time ?time) (frequency ?freq) (pid ?pid))
  (transfer_source (xfer ?x) (s_type SOCKET))
  (test (looks-executable ?head))
  =>
  (warn check_content HIGH ?pid ?time (rarely ?freq ?time)
    "Found Write call to " ?tn
    " - EXECUTABLE content downloaded from the network"))

;; trigger-gated (dormant) behaviour: a rarely-executed write whose
;; control flow was steered by bytes that arrived over a socket
(defrule check_trigger
  (data_transfer (target_name ?tn) (target_type ?tt)
    (guard ?guard)
    (time ?time) (frequency ?freq) (pid ?pid))
  (test (neq ?tt STDIO))
  (test (rarely ?freq ?time))
  (test (guard-tainted ?guard))
  =>
  (warn check_trigger HIGH ?pid ?time TRUE
    "Found rarely-executed Write call to " ?tn
    " - control flow steered by remote trigger bytes (dormant payload)"))
|}

open Expert

let compile () = Clips.compile_forms (Clips.parse text)

let install_forms engine (ctx : Context.t) forms =
  let th = Context.thresholds in
  Engine.set_global engine "CLONE_RATE" (Value.Int th.clone_rate_medium);
  Engine.set_global engine "CLONE_COUNT" (Value.Int th.clone_count_low);
  Engine.set_global engine "ALLOC_LOW" (Value.Int th.alloc_low);
  Engine.set_global engine "ALLOC_MEDIUM" (Value.Int th.alloc_medium);
  Engine.defun engine "rarely" (function
    | [ Value.Int freq; Value.Int time ] ->
      Value.of_bool (Context.rarely_executed ~freq ~time)
    | _ -> failwith "rarely expects (freq time)");
  Engine.defun engine "trusted-source" (function
    | [ Value.Sym stype; Value.Str name ] ->
      let src =
        match stype with
        | "BINARY" -> Some (Taint.Source.Binary name)
        | "FILE" -> Some (Taint.Source.File name)
        | "SOCKET" -> Some (Taint.Source.Socket name)
        | _ -> None
      in
      Value.of_bool
        (match src with
         | Some src -> Trust.is_trusted ctx.trust src
         | None -> false)
    | _ -> failwith "trusted-source expects (type name)");
  Engine.defun engine "looks-executable" (function
    | [ Value.Str head ] -> Value.of_bool (Policy_flow.looks_executable head)
    | _ -> failwith "looks-executable expects (head)");
  Engine.defun engine "guard-tainted" (function
    | [ v ] -> Value.of_bool (Policy_flow.untrusted_socket_guards ctx v <> [])
    | _ -> failwith "guard-tainted expects (guard)");
  Engine.defun engine "warn" (function
    | Value.Sym rule :: Value.Sym sev :: Value.Int pid :: Value.Int time
      :: rare :: parts ->
      let severity =
        Option.value (Severity.of_label sev) ~default:Severity.Low
      in
      ctx.warn
        (Warning.make ~severity ~rule ~pid ~time ~rare:(Value.truthy rare)
           (String.concat "" (List.map Value.text parts)));
      Value.sym_true
    | _ -> failwith "warn expects (rule severity pid time rare parts...)");
  Clips.install_compiled engine forms
