type verdict =
  | Benign
  | Suspicious of Secpert.Severity.t

let verdict (r : Engine.result) =
  match r.max_severity with
  | None -> Benign
  | Some s -> Suspicious s

let equal_verdict a b =
  match a, b with
  | Benign, Benign -> true
  | Suspicious x, Suspicious y -> Secpert.Severity.equal x y
  | (Benign | Suspicious _), _ -> false

let verdict_label = function
  | Benign -> "benign"
  | Suspicious s -> Fmt.str "suspicious[%s]" (Secpert.Severity.label s)

let pp_verdict ppf v = Fmt.string ppf (verdict_label v)

let pp_result ~verbose ppf (r : Engine.result) =
  Fmt.pf ppf "@[<v>verdict: %a%s@,warnings: %d (%d distinct)@,@]" pp_verdict
    (verdict r)
    (if r.degraded = [] then "" else " (degraded)")
    (List.length r.warnings) (List.length r.distinct);
  List.iter (fun reason -> Fmt.pf ppf "degraded: %s@," reason) r.degraded;
  List.iter
    (fun w -> Fmt.pf ppf "%s@,@," (Secpert.Warning.to_string w))
    r.distinct;
  if verbose then begin
    Fmt.pf ppf "@,events (%d):@," r.event_count;
    List.iter (fun e -> Fmt.pf ppf "  %a@," Harrier.Events.pp e) r.events;
    Fmt.pf ppf "@,%a@," Osim.Kernel.pp_report r.os_report
  end

let pp_stats ppf (stats : Obs.snapshot) =
  let width =
    List.fold_left (fun w (n, _) -> max w (String.length n)) 0 stats
  in
  Fmt.pf ppf "@[<v>counters (%d):@," (List.length stats);
  List.iter
    (fun (name, v) -> Fmt.pf ppf "  %-*s %d@," width name v)
    stats;
  (match List.filter (fun h -> Obs.Histogram.count h > 0) (Obs.histograms ())
   with
   | [] -> ()
   | hs ->
     let hwidth =
       List.fold_left
         (fun w h -> max w (String.length (Obs.Histogram.name h)))
         0 hs
     in
     Fmt.pf ppf "histograms (%d):@," (List.length hs);
     List.iter
       (fun h ->
         Fmt.pf ppf
           "  %-*s n=%d mean=%.6f p50=%.6f p95=%.6f p99=%.6f max=%.6f@,"
           hwidth (Obs.Histogram.name h) (Obs.Histogram.count h)
           (Obs.Histogram.mean h)
           (Obs.Histogram.percentile h 50.)
           (Obs.Histogram.percentile h 95.)
           (Obs.Histogram.percentile h 99.)
           (Obs.Histogram.maximum h))
       hs);
  Fmt.pf ppf "@]"

let pp_hot_blocks ppf = function
  | [] -> ()
  | blocks ->
    Fmt.pf ppf "@[<v>hot blocks (%d):@," (List.length blocks);
    List.iter
      (fun (pid, addr, count) ->
        Fmt.pf ppf "  pid %d 0x%06x %d@," pid addr count)
      blocks;
    Fmt.pf ppf "@]"
