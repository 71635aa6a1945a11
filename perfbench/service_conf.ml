(* The service as the benchmark runs it: Fleet.Serve with hth_serve's
   defaults and a resolver the benchmark owns. *)

(* hth_serve's command-line defaults *)
let jobs = 1
let deadline = 30.
let window = 64
let max_inflight = 256
let default_ticks = 5_000_000

(* The budgets Fleet.Serve gives a request that names none, for the
   layer-by-layer replays that bypass it. *)
let budgets = { Hth.Engine.no_budgets with b_ticks = Some default_ticks }

(* The Section 9 instruction-dense guest: ~580k guest instructions,
   about six system calls. *)
let dense = Guest.Perf_workload.scenario ~iters:1000

let scenario name =
  if name = dense.sc_name then Some dense else Guest.Corpus.find name

let resolver name =
  Option.map
    (fun (sc : Guest.Scenario.t) ->
      { Fleet.Serve.t_setup = sc.sc_setup;
        t_expected = Guest.Scenario.expected_label sc.sc_expected;
        t_matches = Guest.Scenario.matches sc.sc_expected })
    (scenario name)

let create ~store =
  Fleet.Serve.create ~jobs ~deadline ~max_inflight ~window ~default_ticks
    ~store ~resolver ()
