type step =
  | Send of string
  | Expect of int
  | Expect_str of string
  | Delay of int
  | Close

type actor = {
  actor_host : string;
  script : step list;
}

type sock_state =
  | Fresh
  | Bound of int
  | Listening of int
  | Connected of conn
  | Closed

and conn = {
  peer : string;
  local_name : string;
  mutable inbox : string;
  mutable sent : int;
  mutable outbox : string;
  mutable remaining : step list;
  mutable wake : int option;
  mutable remote_closed : bool;
  server_side : bool;
}

type socket = { sock_id : int; mutable state : sock_state }

type t = {
  mutable dns : (string * int) list;
  mutable servers : ((int * int) * actor) list;  (* (ip, port) -> actor *)
  mutable incoming : (int * actor) list;  (* listening port -> clients *)
  mutable next_sock : int;
  mutable conns : conn list;
  mutable next_ephemeral : int;
  mutable now : int;
}

let c_delivered = Obs.Counter.make "osim.net.delayed_deliveries"

let create () =
  { dns = []; servers = []; incoming = []; next_sock = 1; conns = [];
    next_ephemeral = 36000; now = 0 }

let add_host t name ip = t.dns <- (name, ip) :: t.dns

let resolve t name = List.assoc_opt name t.dns

let host_of_ip t ip =
  match List.find_opt (fun (_, i) -> i = ip) t.dns with
  | Some (name, _) -> name
  | None ->
    Fmt.str "%d.%d.%d.%d" (ip land 0xFF) ((ip lsr 8) land 0xFF)
      ((ip lsr 16) land 0xFF) ((ip lsr 24) land 0xFF)

let hosts_db t =
  let b = Buffer.create 64 in
  List.iter
    (fun (name, ip) ->
      let padded =
        if String.length name >= 16 then String.sub name 0 16
        else name ^ String.make (16 - String.length name) '\000'
      in
      Buffer.add_string b padded;
      let w = Bytes.create 4 in
      Bytes.set_int32_le w 0 (Int32.of_int ip);
      Buffer.add_bytes b w)
    (List.rev t.dns);
  Buffer.contents b

let add_server t ~host ~port actor =
  let ip =
    match resolve t host with
    | Some ip -> ip
    | None -> failwith (Fmt.str "Net.add_server: unknown host %S" host)
  in
  t.servers <- ((ip, port), actor) :: t.servers

let add_incoming t ~port actor = t.incoming <- t.incoming @ [ port, actor ]

let new_socket t =
  let s = { sock_id = t.next_sock; state = Fresh } in
  t.next_sock <- t.next_sock + 1;
  s

let find_sub hay needle =
  let nl = String.length needle and hl = String.length hay in
  if nl = 0 then Some 0
  else
    let rec go i =
      if i + nl > hl then None
      else if String.equal (String.sub hay i nl) needle then Some i
      else go (i + 1)
    in
    go 0

(* Advance the remote script as far as possible.  [Delay] and
   [Expect_str] are the dormancy primitives: a step that completes only
   once simulated time reaches a deadline, and one that completes only
   once the guest's outbound bytes contain an exact string. *)
let rec progress t conn =
  match conn.remaining with
  | [] -> ()
  | Send s :: rest ->
    conn.inbox <- conn.inbox ^ s;
    conn.remaining <- rest;
    progress t conn
  | Expect n :: rest ->
    if conn.sent >= n then begin
      conn.sent <- conn.sent - n;
      conn.remaining <- rest;
      progress t conn
    end
  | Expect_str s :: rest ->
    (match find_sub conn.outbox s with
     | Some i ->
       let stop = i + String.length s in
       conn.outbox <-
         String.sub conn.outbox stop (String.length conn.outbox - stop);
       conn.remaining <- rest;
       progress t conn
     | None -> ())
  | Delay d :: rest ->
    (match conn.wake with
     | None -> conn.wake <- Some (t.now + max 1 d)
     | Some w ->
       if t.now >= w then begin
         conn.wake <- None;
         conn.remaining <- rest;
         Obs.Counter.incr c_delivered;
         progress t conn
       end)
  | Close :: rest ->
    conn.remote_closed <- true;
    conn.remaining <- rest

(* Only scripts that still contain an [Expect_str] need the guest's
   outbound bytes retained for matching; everything else drops them so
   chatty connections stay O(1) in memory. *)
let wants_outbox conn =
  List.exists (function Expect_str _ -> true | _ -> false) conn.remaining

let make_conn t ~peer ~local_name ~script ~server_side =
  let conn =
    { peer; local_name; inbox = ""; sent = 0; outbox = ""; remaining = script;
      wake = None; remote_closed = false; server_side }
  in
  t.conns <- conn :: t.conns;
  progress t conn;
  conn

let connect t sock ~ip ~port =
  match List.assoc_opt (ip, port) t.servers with
  | None -> None
  | Some actor ->
    let peer = Fmt.str "%s:%d" (host_of_ip t ip) port in
    let local = Fmt.str "LocalHost:%d" t.next_ephemeral in
    t.next_ephemeral <- t.next_ephemeral + 1;
    let conn =
      make_conn t ~peer ~local_name:local ~script:actor.script
        ~server_side:false
    in
    sock.state <- Connected conn;
    Some conn

let accept t sock =
  match sock.state with
  | Listening port ->
    let rec take acc = function
      | [] -> None
      | (p, actor) :: rest when p = port ->
        t.incoming <- List.rev_append acc rest;
        Some actor
      | entry :: rest -> take (entry :: acc) rest
    in
    (match take [] t.incoming with
     | None -> None
     | Some actor ->
       let peer = Fmt.str "%s:%d" actor.actor_host t.next_ephemeral in
       t.next_ephemeral <- t.next_ephemeral + 1;
       let local = Fmt.str "LocalHost:%d" port in
       Some (make_conn t ~peer ~local_name:local ~script:actor.script
               ~server_side:true))
  | Fresh | Bound _ | Connected _ | Closed -> None

let guest_send t conn s =
  conn.sent <- conn.sent + String.length s;
  if wants_outbox conn then conn.outbox <- conn.outbox ^ s;
  progress t conn

let guest_recv conn n =
  let avail = String.length conn.inbox in
  if avail = 0 then ""
  else begin
    let n = min n avail in
    let chunk = String.sub conn.inbox 0 n in
    conn.inbox <- String.sub conn.inbox n (avail - n);
    chunk
  end

let tick t now =
  if now > t.now then t.now <- now;
  List.iter (fun c -> if c.wake <> None then progress t c) t.conns

let next_wake t =
  List.fold_left
    (fun acc c ->
      match c.wake, acc with
      | Some w, Some a -> Some (min w a)
      | Some w, None -> Some w
      | None, _ -> acc)
    None t.conns
