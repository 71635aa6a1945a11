type t = {
  no_user_intervention : bool;
  remotely_directed : bool;
  hardcoded_resources : bool;
  degrading_performance : bool;
}

let origin_tags (e : Harrier.Events.t) =
  match e with
  | Exec { path; _ } -> [ path.r_origin ]
  | Access { res; _ } -> [ res.r_origin ]
  | Transfer { target; data; via_server; sources; _ } ->
    (target.r_origin :: data
     :: List.map (fun (_, o) -> o) sources)
    @ (match via_server with Some s -> [ s.r_origin ] | None -> [])
  | Clone _ | Alloc _ -> []

let derive ?(trust = Secpert.Trust.default) (r : Engine.result) =
  let tags = List.concat_map origin_tags r.events in
  let classify tag = Secpert.Trust.classify trust tag in
  let user_seen =
    List.exists (fun tag -> Taint.Tagset.has_user_input tag) tags
  in
  let remote_name =
    List.exists
      (fun tag ->
        match classify tag with
        | Taint.Origin.From_socket _ -> true
        | _ -> false)
      tags
  in
  let accepted =
    List.exists
      (function
        | Harrier.Events.Access { call = "SYS_accept"; _ } -> true
        | _ -> false)
      r.events
  in
  let hardcoded =
    List.exists
      (fun tag ->
        match classify tag with
        | Taint.Origin.Hardcoded _ -> true
        | _ -> false)
      tags
  in
  let degrading =
    List.exists
      (fun (w : Secpert.Warning.t) ->
        String.length w.rule >= 11 && String.sub w.rule 0 11 = "check_clone")
      r.warnings
  in
  { no_user_intervention = not user_seen;
    remotely_directed = remote_name || accepted;
    hardcoded_resources = hardcoded;
    degrading_performance = degrading }

let mark b = if b then "x" else ""

let row t =
  [ mark t.no_user_intervention; mark t.remotely_directed;
    mark t.hardcoded_resources; mark t.degrading_performance ]

let pp ppf t =
  Fmt.pf ppf "no-user:%b remote:%b hardcoded:%b degrading:%b"
    t.no_user_intervention t.remotely_directed t.hardcoded_resources
    t.degrading_performance
