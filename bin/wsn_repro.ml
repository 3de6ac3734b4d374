(* Command-line driver: regenerate any of the paper's experiments.

   Exit codes are uniform across subcommands: 0 on success, 1 when an
   experiment or sweep job fails, 2 on usage or I/O errors.  All error
   prints funnel through [die]. *)

open Cmdliner
module Registry = Wsn_telemetry.Registry
module Export = Wsn_telemetry.Export
module Metrics = Wsn_routing.Metrics
module Engine = Wsn_engine

(* Raised (never printed directly) so in-flight telemetry can flush
   before the process exits; [with_telemetry] turns it into the exit
   code. *)
exception Die of int * string

let die code fmt = Printf.ksprintf (fun msg -> raise (Die (code, msg))) fmt

let exit_ok = 0

let exit_job_failure = 1

let exit_usage = 2

let seed_arg default =
  let doc = "Random seed (deterministic reproduction)." in
  Arg.(value & opt int64 default & info [ "seed" ] ~docv:"SEED" ~doc)

(* Global telemetry switch, available on every subcommand.  Bare
   [--telemetry] prints a summary table after the experiment;
   [--telemetry=FILE] writes a JSON snapshot instead.  Absent, the
   registry stays disabled and instrumentation is branch-only. *)
let telemetry_arg =
  let doc =
    "Record runtime telemetry (solver pivots, column counts, MAC events, span latencies). \
     Without a value, print a summary table after the run; with $(docv), write a JSON \
     snapshot to $(docv)."
  in
  Arg.(value & opt ~vopt:(Some "-") (some string) None & info [ "telemetry" ] ~docv:"FILE" ~doc)

(* Global parallelism switch, available on every subcommand: the size
   of the in-process domain pool used by set enumeration, pricing and
   simulator replications.  The default of 1 keeps every code path
   sequential (today's behaviour); any size produces byte-identical
   output. *)
let domains_arg =
  let doc =
    "Domains for in-process parallel hot paths (set enumeration, LP pricing, simulator \
     replications).  1 (the default) is fully sequential; results are byte-identical \
     for any value."
  in
  Arg.(value & opt int 1 & info [ "d"; "domains" ] ~docv:"N" ~doc)

(* The snapshot must flush even when [run] raises — a failing
   experiment's counters are exactly the ones worth reading — hence
   [Fun.protect].  The finally must not exit (it would mask the
   failure), so a snapshot I/O error is recorded and reported after. *)
let with_telemetry mode run =
  (match mode with Some _ -> Registry.set_enabled true | None -> ());
  let snapshot_error = ref None in
  let flush_telemetry () =
    match mode with
    | None -> ()
    | Some "-" ->
      print_newline ();
      Format.printf "%a@." Export.pp_summary (Registry.snapshot ())
    | Some file -> (
      try
        Wsn_telemetry.Json.write_file file (Export.to_json (Registry.snapshot ()));
        Printf.printf "wrote telemetry snapshot to %s\n" file
      with Sys_error msg -> snapshot_error := Some msg)
  in
  (match Fun.protect ~finally:flush_telemetry run with
   | () -> ()
   | exception Die (code, msg) ->
     Printf.eprintf "wsn_repro: %s\n%!" msg;
     exit code
   | exception e ->
     Printf.eprintf "wsn_repro: experiment failed: %s\n%!" (Printexc.to_string e);
     exit exit_job_failure);
  match !snapshot_error with
  | Some msg ->
    Printf.eprintf "wsn_repro: cannot write telemetry snapshot: %s\n%!" msg;
    exit exit_usage
  | None -> ()

(* Every subcommand funnels through here: validate and install the
   global domain count (usage errors exit 2, like any flag error),
   then run under the telemetry bracket. *)
let with_common telem domains run =
  with_telemetry telem (fun () ->
      if domains < 1 then die exit_usage "--domains must be >= 1 (got %d)" domains;
      Wsn_parallel.Pool.set_domains domains;
      run ())

let pricer_of_string s =
  match s with
  | "exact" -> Wsn_availbw.Column_gen.Exact
  | "auto" -> Wsn_availbw.Column_gen.Auto
  | other -> die exit_usage "--pricer must be exact or auto (got %S)" other

let e1_cmd =
  let run telem domains = with_common telem domains (fun () -> Wsn_experiments.Scenario1.print ()) in
  Cmd.v (Cmd.info "e1" ~doc:"Scenario I: idle-time estimation vs optimal scheduling")
    Term.(const run $ telemetry_arg $ domains_arg)

let e2_cmd =
  let run telem domains = with_common telem domains (fun () -> Wsn_experiments.Scenario2.print ()) in
  Cmd.v (Cmd.info "e2" ~doc:"Scenario II: the four-link chain and the 16.2 Mbps optimum")
    Term.(const run $ telemetry_arg $ domains_arg)

let e3_cmd =
  let run telem domains seed = with_common telem domains (fun () -> Wsn_experiments.Fig3.print ~seed ()) in
  Cmd.v (Cmd.info "e3" ~doc:"Fig. 3: routing metrics on the random 30-node topology")
    Term.(const run $ telemetry_arg $ domains_arg $ seed_arg 30L)

let e4_cmd =
  let run telem domains seed = with_common telem domains (fun () -> Wsn_experiments.Fig4.print ~seed ()) in
  Cmd.v (Cmd.info "e4" ~doc:"Fig. 4: estimators of path available bandwidth")
    Term.(const run $ telemetry_arg $ domains_arg $ seed_arg 30L)

let e5_cmd =
  let run telem domains seed =
    with_common telem domains (fun () -> Wsn_experiments.Hypothesis.print ~seed ())
  in
  Cmd.v (Cmd.info "e5" ~doc:"Hypothesis (8) violation sweep")
    Term.(const run $ telemetry_arg $ domains_arg $ seed_arg 11L)

let e6_cmd =
  let run telem domains seed =
    with_common telem domains (fun () -> Wsn_experiments.Mac_validation.print ~seed ())
  in
  Cmd.v (Cmd.info "e6" ~doc:"CSMA/CA-measured vs analytic idleness")
    Term.(const run $ telemetry_arg $ domains_arg $ seed_arg 30L)

let e7_cmd =
  let run telem domains seed =
    with_common telem domains (fun () -> Wsn_experiments.Routing_strategies.print ~seed ())
  in
  Cmd.v (Cmd.info "e7" ~doc:"Bandwidth-aware routing strategies vs additive metrics")
    Term.(const run $ telemetry_arg $ domains_arg $ seed_arg 30L)

let e12_cmd =
  let run telem domains seed =
    with_common telem domains (fun () -> Wsn_experiments.Joint_gap.print ~seed ())
  in
  Cmd.v (Cmd.info "e12" ~doc:"Single-path cost vs splittable joint routing optimum")
    Term.(const run $ telemetry_arg $ domains_arg $ seed_arg 30L)

let e13_cmd =
  let run telem domains seed =
    with_common telem domains (fun () -> Wsn_experiments.Protocol_gap.print ~seed ())
  in
  Cmd.v (Cmd.info "e13" ~doc:"Protocol (pairwise) vs physical (SINR) interference model")
    Term.(const run $ telemetry_arg $ domains_arg $ seed_arg 5L)

let e14_cmd =
  let run telem domains = with_common telem domains (fun () -> Wsn_experiments.Scalability.print ()) in
  Cmd.v (Cmd.info "e14" ~doc:"Enumeration vs column generation scalability")
    Term.(const run $ telemetry_arg $ domains_arg)

let fig2_cmd =
  let doc = "Output file (- for stdout)." in
  let out = Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc) in
  let run telem domains seed out =
    with_common telem domains (fun () ->
        if out = "-" then Wsn_experiments.Fig2.print ~seed ()
        else begin
          (try Wsn_experiments.Fig2.write ~seed ~path:out ()
           with Sys_error msg -> die exit_usage "cannot write %s: %s" out msg);
          Printf.printf "wrote %s (render: neato -n2 -Tpng %s -o fig2.png)\n" out out
        end)
  in
  Cmd.v (Cmd.info "fig2" ~doc:"Emit the Fig. 2 topology/paths picture as Graphviz DOT")
    Term.(const run $ telemetry_arg $ domains_arg $ seed_arg 30L $ out)

let ablations_cmd =
  let run telem domains seed =
    with_common telem domains (fun () ->
        Wsn_experiments.Ablations.Rts_cts.print ~seed ();
        print_newline ();
        Wsn_experiments.Ablations.Cs_range.print ~seed ();
        print_newline ();
        Wsn_experiments.Ablations.Quantisation.print ();
        print_newline ();
        Wsn_experiments.Ablations.Dominance.print ~seed ())
  in
  Cmd.v
    (Cmd.info "ablations" ~doc:"Ablations E8-E11: RTS/CTS, CS range, quantisation, dominance filter")
    Term.(const run $ telemetry_arg $ domains_arg $ seed_arg 30L)

(* --- sweep: grid execution on the Wsn_engine pool -------------------- *)

let metric_names_of_string s =
  if s = "all" then List.map Metrics.name Metrics.all
  else
    List.map
      (fun name ->
        let name = String.trim name in
        match List.find_opt (fun m -> Metrics.name m = name) Metrics.all with
        | Some m -> Metrics.name m
        | None ->
          die exit_usage "unknown metric %S (have: all, %s)" name
            (String.concat ", " (List.map Metrics.name Metrics.all)))
      (String.split_on_char ',' s)

let sweep_cmd =
  let kind =
    let doc = "Job kind: fig3, or the fault-injection kinds fail/sleep/crash (tests)." in
    Arg.(value & opt string "fig3" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let seeds =
    let doc = "Seed grid: comma-separated integers and inclusive spans, e.g. 1..100 or 30 or 1..3,7." in
    Arg.(value & opt string "1..20" & info [ "seeds" ] ~docv:"RANGE" ~doc)
  in
  let metrics =
    let doc = "Routing metrics: 'all' or a comma-separated subset of hop-count, e2eTD, average-e2eD." in
    Arg.(value & opt string "all" & info [ "metrics" ] ~docv:"NAMES" ~doc)
  in
  let n_flows =
    let doc = "Flows offered per job (the paper uses 8)." in
    Arg.(value & opt int 8 & info [ "n-flows" ] ~docv:"N" ~doc)
  in
  let demand =
    let doc = "Per-flow demand in Mbit/s (the paper uses 2.0)." in
    Arg.(value & opt float 2.0 & info [ "demand" ] ~docv:"MBPS" ~doc)
  in
  let jobs =
    let doc = "Worker processes; 0 runs in-process (no crash isolation or timeouts)." in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let timeout =
    let doc = "Per-job wall-clock timeout in seconds; 0 disables." in
    Arg.(value & opt float 300.0 & info [ "timeout" ] ~docv:"SEC" ~doc)
  in
  let retries =
    let doc = "Extra attempts for a failed or timed-out job." in
    Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let cache_dir =
    let doc = "Content-addressed result cache directory." in
    Arg.(value & opt string Engine.Cache.default_dir & info [ "cache" ] ~docv:"DIR" ~doc)
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the result cache.")
  in
  let out =
    let doc = "Write results (one JSON object per job, in grid order) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let journal =
    let doc = "Run journal path (default: OUT.journal when --out is given)." in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let resume =
    Arg.(value & flag & info [ "resume" ] ~doc:"Resume an interrupted sweep from its journal.")
  in
  let retry_failed =
    Arg.(value & flag & info [ "retry-failed" ] ~doc:"On --resume, re-run jobs the journal recorded as failed.")
  in
  let table =
    let doc = "Print per-seed Fig. 3 tables (byte-identical to e3) instead of the aggregate." in
    Arg.(value & flag & info [ "table" ] ~doc)
  in
  let run telem domains kind seeds metrics n_flows demand jobs timeout retries cache_dir
      no_cache out journal resume retry_failed table =
    with_common telem domains @@ fun () ->
    let seeds =
      match Engine.Grid.parse_range seeds with
      | Ok s -> s
      | Error msg -> die exit_usage "%s" msg
    in
    let metric_names = metric_names_of_string metrics in
    let specs =
      try Engine.Grid.specs ~kind ~seeds ~metrics:metric_names ~n_flows ~demand_mbps:demand
      with Invalid_argument msg -> die exit_usage "%s" msg
    in
    let journal =
      match (journal, out) with
      | (Some _ as j), _ -> j
      | None, Some o -> Some (o ^ ".journal")
      | None, None -> None
    in
    if resume && journal = None then die exit_usage "--resume needs --journal or --out";
    let cfg =
      {
        Engine.Sweep.workers = jobs;
        timeout_s = (if timeout <= 0.0 then infinity else timeout);
        retries;
        cache_dir = (if no_cache then None else Some cache_dir);
        fingerprint = None;
        out;
        journal;
        resume;
        retry_failed;
      }
    in
    let results, summary =
      try Engine.Sweep.run cfg ~runner:Wsn_experiments.Sweep_jobs.runner specs
      with Sys_error msg -> die exit_usage "%s" msg
    in
    let ok_payloads =
      List.filter_map
        (fun (r : Engine.Pool.result) ->
          match r.Engine.Pool.outcome with
          | Engine.Pool.Done payload -> Some (r.Engine.Pool.spec, payload)
          | Engine.Pool.Failed _ -> None)
        results
    in
    if table then print_string (Wsn_experiments.Sweep_jobs.table ok_payloads)
    else if kind = "fig3" && ok_payloads <> [] then begin
      Printf.printf "# mean admitted flows (of %d) over %d seeds\n" n_flows (List.length seeds);
      List.iter
        (fun (m, mean) -> Printf.printf "%-14s %.2f\n" (Metrics.name m) mean)
        (Wsn_experiments.Sweep_jobs.mean_admitted ok_payloads)
    end;
    List.iter
      (fun (r : Engine.Pool.result) ->
        match r.Engine.Pool.outcome with
        | Engine.Pool.Done _ -> ()
        | Engine.Pool.Failed f ->
          Printf.eprintf "wsn_repro: job failed after %d attempt%s: %s: %s\n"
            r.Engine.Pool.attempts
            (if r.Engine.Pool.attempts = 1 then "" else "s")
            (Engine.Spec.canonical r.Engine.Pool.spec)
            (Engine.Pool.failure_to_string f))
      results;
    Format.eprintf "%a@." Engine.Sweep.pp_summary summary;
    if summary.Engine.Sweep.failed > 0 then
      die exit_job_failure "%d of %d jobs failed" summary.Engine.Sweep.failed
        summary.Engine.Sweep.total
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run an experiment grid (seeds x metrics) on the parallel engine: forked workers, \
          content-addressed cache, resumable journal")
    Term.(
      const run $ telemetry_arg $ domains_arg $ kind $ seeds $ metrics $ n_flows $ demand
      $ jobs $ timeout $ retries $ cache_dir $ no_cache $ out $ journal $ resume
      $ retry_failed $ table)

let scale_cmd =
  let ns =
    let doc = "Comma-separated topology sizes (nodes) to sweep." in
    Arg.(value & opt string "30,100,300,1000" & info [ "n"; "nodes" ] ~docv:"SIZES" ~doc)
  in
  let pricer =
    let doc =
      "Pricing tier: $(b,exact) (branch-and-bound every round) or $(b,auto) (default; \
       greedy, certified by the exact pricer on universes of at most 128 links)."
    in
    Arg.(value & opt string "auto" & info [ "pricer" ] ~docv:"TIER" ~doc)
  in
  let max_iterations =
    let doc =
      "Cap on master solves per query (0 = library default).  Under $(b,auto) the \
       query is anytime: a cap trades wall time for bracket gap (under $(b,exact), \
       reaching it is an error)."
    in
    Arg.(value & opt int 0 & info [ "max-iterations" ] ~docv:"N" ~doc)
  in
  let run telem domains seed ns pricer max_iterations =
    with_common telem domains @@ fun () ->
    let pricer = pricer_of_string pricer in
    if max_iterations < 0 then
      die exit_usage "--max-iterations must be >= 0 (got %d)" max_iterations;
    let ns =
      List.map
        (fun s ->
          match int_of_string_opt (String.trim s) with
          | Some n when n >= 2 -> n
          | Some n -> die exit_usage "-n sizes must be >= 2 (got %d)" n
          | None -> die exit_usage "bad size %S in -n" s)
        (String.split_on_char ',' ns)
    in
    if ns = [] then die exit_usage "-n needs at least one size";
    let max_iterations = if max_iterations = 0 then None else Some max_iterations in
    Wsn_experiments.Scale.print ~ns ?max_iterations ~pricer ~seed ()
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "E16: bracket Eq. 6 availability on generated 100-1000-node topologies \
          (greedy column pricing vs the hard-conflict clique upper bound)")
    Term.(
      const run $ telemetry_arg $ domains_arg $ seed_arg 30L $ ns $ pricer $ max_iterations)

let soak_cmd =
  let epochs =
    let doc = "Number of epochs the horizon is cut into." in
    Arg.(value & opt int 48 & info [ "epochs" ] ~docv:"N" ~doc)
  in
  let nodes =
    let doc = "Node universe size." in
    Arg.(value & opt int 30 & info [ "n"; "nodes" ] ~docv:"N" ~doc)
  in
  let horizon =
    let doc = "Simulated timeline length in hours." in
    Arg.(value & opt float 24.0 & info [ "horizon-h" ] ~docv:"HOURS" ~doc)
  in
  let window =
    let doc = "MAC measurement window per epoch, in simulated microseconds." in
    Arg.(value & opt int 1_000_000 & info [ "window-us" ] ~docv:"US" ~doc)
  in
  let pricer =
    let doc = "Column pricing tier for the warm LP re-solves: exact or auto (default)." in
    Arg.(value & opt string "auto" & info [ "pricer" ] ~docv:"TIER" ~doc)
  in
  let rebuild =
    let doc =
      "Rebuild the MAC kernel from scratch every churn epoch instead of patching it \
       incrementally.  Output is byte-identical either way (the soak bench gates this); \
       the flag exists for timing comparisons."
    in
    Arg.(value & flag & info [ "rebuild" ] ~doc)
  in
  let run telem domains seed epochs nodes horizon window pricer rebuild =
    with_common telem domains @@ fun () ->
    if epochs < 1 then die exit_usage "--epochs must be >= 1 (got %d)" epochs;
    if nodes < 2 then die exit_usage "--nodes must be >= 2 (got %d)" nodes;
    if horizon <= 0.0 then die exit_usage "--horizon-h must be > 0 (got %g)" horizon;
    if window < 1 then die exit_usage "--window-us must be >= 1 (got %d)" window;
    let pricer = pricer_of_string pricer in
    Wsn_experiments.Soak.print ~seed ~epochs ~n_nodes:nodes ~horizon_h:horizon
      ~window_us:window ~pricer ~rebuild ()
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "E17: replay a seeded time-varying scenario (flow churn, diurnal load, node \
          join/leave, waypoint drift) tracking the online estimators against warm LP \
          ground truth, with incremental per-epoch kernel maintenance")
    Term.(
      const run $ telemetry_arg $ domains_arg $ seed_arg 30L $ epochs $ nodes $ horizon
      $ window $ pricer $ rebuild)

let whatif_cmd =
  let factors =
    let doc = "Comma-separated demand-scaling factors to probe." in
    Arg.(value & opt string "0.0,0.5,0.9,1.1,1.5,2.0" & info [ "factors" ] ~docv:"LIST" ~doc)
  in
  let nodes =
    let doc = "Topology size (nodes) of the generated scenario." in
    Arg.(value & opt int 30 & info [ "n"; "nodes" ] ~docv:"N" ~doc)
  in
  let flows =
    let doc = "Flows drawn in the scenario (0 = scenario default)." in
    Arg.(value & opt int 0 & info [ "flows" ] ~docv:"N" ~doc)
  in
  let demand =
    let doc =
      "Per-flow demand in Mbit/s (0 = scenario default).  An unschedulable demand makes the \
       experiment fail (exit 1): no certified optimum, nothing to differentiate."
    in
    Arg.(value & opt float 0.0 & info [ "demand" ] ~docv:"MBPS" ~doc)
  in
  let run telem domains seed factors nodes flows demand =
    with_common telem domains @@ fun () ->
    if nodes < 2 then die exit_usage "--nodes must be >= 2 (got %d)" nodes;
    if flows < 0 then die exit_usage "--flows must be >= 0 (got %d)" flows;
    if demand < 0.0 || not (Float.is_finite demand) then
      die exit_usage "--demand must be finite and >= 0 (got %g)" demand;
    let factors =
      List.map
        (fun s ->
          match float_of_string_opt (String.trim s) with
          | Some f when Float.is_finite f && f >= 0.0 -> f
          | Some f -> die exit_usage "--factors must be finite and >= 0 (got %g)" f
          | None -> die exit_usage "bad factor %S in --factors" s)
        (String.split_on_char ',' factors)
    in
    if factors = [] then die exit_usage "--factors needs at least one factor";
    let n_flows = if flows = 0 then None else Some flows in
    let demand_mbps = if demand = 0.0 then None else Some demand in
    let rows =
      try Wsn_experiments.Whatif.print ~factors ?n_flows ?demand_mbps ~n_nodes:nodes ~seed ()
      with Failure msg -> die exit_job_failure "%s" msg
    in
    if not (Wsn_experiments.Whatif.all_in_range_exact rows) then
      die exit_job_failure
        "an in-range prediction disagreed with its re-solve at wire precision"
  in
  Cmd.v
    (Cmd.info "whatif"
       ~doc:
         "E18: answer demand-scaling what-if queries from the warm master's cached basis \
          and gate each in-range prediction against a fresh certified re-solve")
    Term.(
      const run $ telemetry_arg $ domains_arg $ seed_arg 30L $ factors $ nodes $ flows $ demand)

let topo_cmd =
  let run telem domains seed =
    with_common telem domains (fun () ->
        let scenario = Wsn_workload.Scenarios.Random_scenario.generate ~seed () in
        Format.printf "%a@." Wsn_net.Topology.pp
          scenario.Wsn_workload.Scenarios.Random_scenario.topology)
  in
  Cmd.v (Cmd.info "topo" ~doc:"Print a generated topology")
    Term.(const run $ telemetry_arg $ domains_arg $ seed_arg 30L)

let all_cmd =
  let run telem domains seed =
    with_common telem domains (fun () ->
        Wsn_experiments.Scenario1.print ();
        print_newline ();
        Wsn_experiments.Scenario2.print ();
        print_newline ();
        Wsn_experiments.Fig3.print ~seed ();
        print_newline ();
        Wsn_experiments.Fig4.print ~seed ();
        print_newline ();
        Wsn_experiments.Hypothesis.print ();
        print_newline ();
        Wsn_experiments.Mac_validation.print ~seed ();
        print_newline ();
        Wsn_experiments.Routing_strategies.print ~seed ())
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment")
    Term.(const run $ telemetry_arg $ domains_arg $ seed_arg 30L)

let serve_cmd =
  let socket =
    let doc =
      "Serve (or with $(b,--client), connect) over a Unix-domain socket at $(docv) instead of \
       stdio."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let client =
    let doc =
      "Act as a client: send request lines from stdin to the server at $(b,--socket) and print \
       its response lines."
    in
    Arg.(value & flag & info [ "client" ] ~doc)
  in
  let gen_trace =
    let doc =
      "Generate $(docv) seeded Poisson admission-trace request lines on stdout and exit (no \
       server)."
    in
    Arg.(value & opt (some int) None & info [ "gen-trace" ] ~docv:"N" ~doc)
  in
  let cold =
    let doc =
      "Cold reference mode: recompute every answer from scratch (full enumeration LP, fresh \
       background schedule per request) instead of warm incremental state.  Response \
       transcripts are byte-identical either way."
    in
    Arg.(value & flag & info [ "cold" ] ~doc)
  in
  let batch =
    let doc = "Maximum request lines answered per wave (burst batching)." in
    Arg.(value & opt int 32 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let max_conns =
    let doc = "Exit after serving $(docv) socket connections." in
    Arg.(value & opt (some int) None & info [ "max-conns" ] ~docv:"N" ~doc)
  in
  let metric =
    let doc = "Routing metric for admits and queries: hop-count, e2eTD or average-e2eD." in
    Arg.(value & opt string "average-e2eD" & info [ "metric" ] ~docv:"NAME" ~doc)
  in
  let pricer =
    let doc =
      "Column pricing tier for warm queries: $(b,exact) (default; branch-and-bound every \
       round) or $(b,auto) (greedy, with exact certification on universes of at most \
       128 links — byte-identical to exact at the paper's scale)."
    in
    Arg.(value & opt string "exact" & info [ "pricer" ] ~docv:"TIER" ~doc)
  in
  let run telem domains seed socket client gen_trace cold batch metric pricer max_conns =
    with_common telem domains @@ fun () ->
    match gen_trace with
    | Some n ->
      if n < 0 then die exit_usage "--gen-trace must be >= 0 (got %d)" n;
      let trace = Wsn_workload.Scenarios.Admission_trace.generate ~n_ops:n ~seed () in
      List.iter print_endline (Wsn_workload.Scenarios.Admission_trace.to_request_lines trace)
    | None -> (
      let metric =
        match List.find_opt (fun m -> Metrics.name m = metric) Metrics.all with
        | Some m -> m
        | None ->
          die exit_usage "unknown metric %S (have: %s)" metric
            (String.concat ", " (List.map Metrics.name Metrics.all))
      in
      if batch < 1 then die exit_usage "--batch must be >= 1 (got %d)" batch;
      let pricer = pricer_of_string pricer in
      (match max_conns with
       | Some n when n < 1 -> die exit_usage "--max-conns must be >= 1 (got %d)" n
       | Some _ | None -> ());
      if client && socket = None then die exit_usage "--client needs --socket PATH";
      match (socket, client) with
      | Some path, true ->
        let lines = ref [] in
        (try
           while true do
             lines := input_line stdin :: !lines
           done
         with End_of_file -> ());
        (try Wsn_admission.Server.run_client ~path ~lines:(List.rev !lines) print_endline
         with Unix.Unix_error (e, _, _) ->
           die exit_job_failure "cannot reach server at %s: %s" path (Unix.error_message e))
      | (Some _ | None), _ -> (
        let scenario = Wsn_workload.Scenarios.Random_scenario.generate ~seed () in
        let topo = scenario.Wsn_workload.Scenarios.Random_scenario.topology in
        let model = scenario.Wsn_workload.Scenarios.Random_scenario.model in
        let mode = if cold then Wsn_admission.Session.Cold else Wsn_admission.Session.Warm in
        match socket with
        | None ->
          let session =
            Wsn_admission.Session.create ~metric ~pricer ~mode ~topo ~model ()
          in
          Wsn_admission.Server.run_stdio ~session ~batch Unix.stdin Unix.stdout
        | Some path ->
          let make_session () =
            Wsn_admission.Session.create ~metric ~pricer ~mode ~topo
              ~model:(Wsn_conflict.Model.fork_view model) ()
          in
          Wsn_admission.Server.run_socket ~make_session ~batch ?max_conns ~path ()))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Resident admission-control server: line-JSON admit/query/release over stdio or a \
          Unix socket, warm-started LP queries against a resident topology")
    Term.(
      const run $ telemetry_arg $ domains_arg $ seed_arg 30L $ socket $ client $ gen_trace
      $ cold $ batch $ metric $ pricer $ max_conns)

let () =
  let doc = "Reproduction of 'Available Bandwidth in Multirate and Multihop WSNs' (ICDCS'09)" in
  let exits =
    [
      Cmd.Exit.info exit_ok ~doc:"on success.";
      Cmd.Exit.info exit_job_failure ~doc:"when an experiment or sweep job fails.";
      Cmd.Exit.info exit_usage ~doc:"on usage or I/O errors.";
    ]
  in
  let info = Cmd.info "wsn_repro" ~version:"1.0.0" ~doc ~exits in
  let group =
    Cmd.group info
      [
        e1_cmd; e2_cmd; e3_cmd; e4_cmd; e5_cmd; e6_cmd; e7_cmd; e12_cmd; e13_cmd; e14_cmd; fig2_cmd;
        ablations_cmd; sweep_cmd; scale_cmd; soak_cmd; whatif_cmd; topo_cmd; serve_cmd;
        all_cmd;
      ]
  in
  (* Map Cmdliner's evaluation outcomes onto the uniform exit codes
     (Cmdliner's own defaults are 124/125). *)
  exit
    (match Cmd.eval_value group with
     | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit_ok
     | Error (`Parse | `Term) -> exit_usage
     | Error `Exn -> exit_job_failure)
