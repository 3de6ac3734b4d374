(* Benchmark harness: regenerates every table/figure of the paper and
   times each experiment plus the pipeline's core stages (Bechamel). *)

open Bechamel
open Toolkit

module S2 = Wsn_workload.Scenarios.Scenario_ii
module RS = Wsn_workload.Scenarios.Random_scenario

(* --- figure regeneration ------------------------------------------- *)

let regenerate ~seed () =
  print_endline "==========================================================";
  Printf.printf " Figure/table regeneration (paper vs measured), seed %Ld\n" seed;
  print_endline "==========================================================";
  Wsn_experiments.Scenario1.print ();
  print_newline ();
  Wsn_experiments.Scenario2.print ();
  print_newline ();
  Wsn_experiments.Fig3.print ~seed ();
  print_newline ();
  Wsn_experiments.Fig4.print ~seed ();
  print_newline ();
  Wsn_experiments.Hypothesis.print ~seed ();
  print_newline ();
  Wsn_experiments.Mac_validation.print ~seed ();
  print_newline ();
  Wsn_experiments.Routing_strategies.print ~seed ();
  print_newline ();
  Wsn_experiments.Ablations.Rts_cts.print ~seed ();
  print_newline ();
  Wsn_experiments.Ablations.Cs_range.print ~seed ();
  print_newline ();
  Wsn_experiments.Ablations.Quantisation.print ();
  print_newline ();
  Wsn_experiments.Ablations.Dominance.print ~seed ();
  print_newline ();
  Wsn_experiments.Joint_gap.print ~seed ();
  print_newline ();
  Wsn_experiments.Protocol_gap.print ~seed ();
  print_newline ();
  Wsn_experiments.Scalability.print ();
  print_newline ();
  let seeds = List.init 10 (fun i -> Int64.of_int (i + 1)) in
  Printf.printf "# E3 aggregate: mean admitted flows (of 8) over %d seeds\n" (List.length seeds);
  List.iter
    (fun (m, mean) -> Printf.printf "%-14s %.2f\n" (Wsn_routing.Metrics.name m) mean)
    (Wsn_experiments.Sweep_jobs.sweep_seeds ~seeds ());
  print_newline ();
  Printf.printf "# E4 aggregate: mean |estimator error| (Mbps) pooled over %d seeds\n"
    (List.length seeds);
  List.iter
    (fun (name, err) -> Printf.printf "%-18s %.3f\n" name err)
    (Wsn_experiments.Fig4.sweep_seeds ~seeds)

(* --- timed benchmarks: one per experiment, plus core stages --------- *)

let experiment_tests =
  [
    Test.make ~name:"E1/scenario1-sweep"
      (Staged.stage (fun () -> Wsn_experiments.Scenario1.rows ()));
    Test.make ~name:"E2/scenario2-full"
      (Staged.stage (fun () -> Wsn_experiments.Scenario2.compute ()));
    Test.make ~name:"E3/fig3-admission"
      (Staged.stage (fun () -> Wsn_experiments.Fig3.compute ()));
    Test.make ~name:"E4/fig4-estimators"
      (Staged.stage (fun () -> Wsn_experiments.Fig4.compute ()));
    Test.make ~name:"E5/hypothesis-sweep"
      (Staged.stage (fun () -> Wsn_experiments.Hypothesis.run ~instances:20 ~seed:11L ()));
    Test.make ~name:"E6/mac-validation"
      (Staged.stage (fun () -> Wsn_experiments.Mac_validation.compute ~duration_us:200_000 ()));
    Test.make ~name:"E7/routing-strategies"
      (Staged.stage (fun () -> Wsn_experiments.Routing_strategies.compute ()));
    Test.make ~name:"E10/quantisation"
      (Staged.stage (fun () -> Wsn_experiments.Ablations.Quantisation.run ()));
    Test.make ~name:"E11/dominance-filter"
      (Staged.stage (fun () -> Wsn_experiments.Ablations.Dominance.run ()));
    Test.make ~name:"E12/joint-gap"
      (Staged.stage (fun () -> Wsn_experiments.Joint_gap.compute ~k:4 ()));
    Test.make ~name:"E13/protocol-gap"
      (Staged.stage (fun () -> Wsn_experiments.Protocol_gap.run ~instances:5 ~seed:5L ()));
    Test.make ~name:"stagecg/column-generation-chain12"
      (Staged.stage (fun () ->
           let topo = Wsn_net.Builders.chain ~spacing_m:55.0 12 in
           let model = Wsn_conflict.Model.physical topo in
           Wsn_availbw.Column_gen.available model ~background:[]
             ~path:(Wsn_net.Builders.chain_hop_links topo)));
  ]

let stage_tests ~seed =
  let scenario = RS.generate ~seed () in
  let topo = scenario.RS.topology in
  let model = scenario.RS.model in
  let run =
    Wsn_routing.Admission.run topo model ~metric:Wsn_routing.Metrics.Average_e2e_delay
      ~flows:scenario.RS.flows
  in
  let background = Wsn_routing.Admission.admitted_flows run in
  let universe = Wsn_availbw.Flow.union_links background in
  let some_path =
    match background with
    | f :: _ -> Wsn_availbw.Flow.links f
    | [] -> failwith "bench: no admitted background"
  in
  [
    Test.make ~name:"stage/independent-set-columns"
      (Staged.stage (fun () -> Wsn_conflict.Independent.columns model ~universe));
    Test.make ~name:"stage/eq6-lp-available"
      (Staged.stage (fun () ->
           Wsn_availbw.Path_bandwidth.available model ~background ~path:some_path));
    Test.make ~name:"stage/chain-eq6-lp"
      (Staged.stage (fun () -> Wsn_availbw.Path_bandwidth.path_capacity S2.model ~path:S2.path));
    Test.make ~name:"stage/chain-eq9-upper"
      (Staged.stage (fun () -> Wsn_availbw.Bounds.upper_eq9 S2.model ~background:[] ~path:S2.path));
    Test.make ~name:"stage/rate-coupled-cliques"
      (Staged.stage (fun () ->
           Wsn_conflict.Clique.maximal_rate_coupled_cliques S2.model ~universe:S2.path));
    Test.make ~name:"stage/dijkstra-route"
      (Staged.stage (fun () ->
           Wsn_routing.Router.find_path topo ~metric:Wsn_routing.Metrics.E2e_transmission_delay
             ~idleness:(fun _ -> 1.0) ~source:0 ~target:29));
    Test.make ~name:"stage/mac-sim-100ms"
      (Staged.stage (fun () ->
           Wsn_mac.Sim.run topo
             ~flows:
               (List.map
                  (fun f ->
                    { Wsn_mac.Sim.links = Wsn_availbw.Flow.links f;
                      demand_mbps = f.Wsn_availbw.Flow.demand_mbps })
                  background)
             ~duration_us:100_000));
  ]

let benchmark ~seed () =
  print_endline "==========================================================";
  print_endline " Timing (Bechamel, OLS estimate per run)";
  print_endline "==========================================================";
  let tests = Test.make_grouped ~name:"wsn" (experiment_tests @ stage_tests ~seed) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let estimate =
          match Analyze.OLS.estimates ols_result with Some (e :: _) -> e | _ -> nan
        in
        (name, estimate) :: acc)
      results []
  in
  List.iter
    (fun (name, ns) ->
      if ns >= 1e9 then Printf.printf "%-38s %10.2f s/run\n" name (ns /. 1e9)
      else if ns >= 1e6 then Printf.printf "%-38s %10.2f ms/run\n" name (ns /. 1e6)
      else if ns >= 1e3 then Printf.printf "%-38s %10.2f us/run\n" name (ns /. 1e3)
      else Printf.printf "%-38s %10.2f ns/run\n" name ns)
    (List.sort compare rows)

(* --- perf suite: naive-model reference vs conflict-kernel fast path -- *)

module Registry = Wsn_telemetry.Registry
module Admission = Wsn_routing.Admission
module Metrics = Wsn_routing.Metrics
module Model = Wsn_conflict.Model
module Flow = Wsn_availbw.Flow
module Column_gen = Wsn_availbw.Column_gen
module Independent = Wsn_conflict.Independent
module Schedule = Wsn_sched.Schedule

(* The perf artifact prints floats as hex literals: the fast
   configuration (conflict kernel) must reproduce the reference (naive
   SINR model) byte for byte, schedule shares included — both arms run
   the same warm master over the same columns. *)
let add_schedule buf sched =
  List.iter
    (fun (s : Schedule.slot) ->
      Printf.bprintf buf "slot [%s] [%s] %h\n"
        (String.concat "," (List.map string_of_int s.Schedule.links))
        (String.concat "," (List.map string_of_int s.Schedule.rates))
        s.Schedule.share)
    (Schedule.slots sched)

let add_admission_run buf (run : Admission.run) =
  Printf.bprintf buf "run %s first_failure=%s\n" run.Admission.label
    (match run.Admission.first_failure with None -> "-" | Some i -> string_of_int i);
  List.iter
    (fun (s : Admission.step) ->
      Printf.bprintf buf "step %d %d->%d demand=%h path=[%s] avail=%h admitted=%b\n"
        s.Admission.index s.Admission.source s.Admission.target s.Admission.demand_mbps
        (match s.Admission.path with
         | None -> "-"
         | Some p -> String.concat "," (List.map string_of_int p))
        s.Admission.available_mbps s.Admission.admitted)
    run.Admission.steps

(* One full Fig. 2-style pass over the random scenario: sequential
   admission per routing metric, a column-generation pass over the
   final background, and an explicit independent-set enumeration.
   Returns the printed artifact. *)
let perf_pipeline ~seed ~n_flows ~metrics ~kernel () =
  let scenario = RS.generate ~n_flows ~seed () in
  let topo = scenario.RS.topology in
  let model = if kernel then Model.physical topo else Model.physical_naive topo in
  let buf = Buffer.create (1 lsl 16) in
  let last_run =
    List.fold_left
      (fun _ metric ->
        (* [stop_on_failure:false]: keep admitting past the first
           failure so the pipeline exercises the full flow list. *)
        let run =
          Admission.run ~stop_on_failure:false topo model ~metric ~flows:scenario.RS.flows
        in
        add_admission_run buf run;
        Some run)
      None metrics
  in
  (match last_run with
   | None -> ()
   | Some run -> (
     match Admission.admitted_flows run with
     | [] -> Buffer.add_string buf "no admitted flows\n"
     | f :: rest ->
       (match Column_gen.available model ~background:rest ~path:(Flow.links f) with
        | Some r ->
          Printf.bprintf buf "colgen avail=%h cols=%d iters=%d\n" r.Column_gen.bandwidth_mbps
            r.Column_gen.columns_generated r.Column_gen.iterations;
          add_schedule buf r.Column_gen.schedule
        | None -> Buffer.add_string buf "colgen infeasible\n");
       let universe = Flow.union_links (f :: rest) in
       let cols = Independent.columns model ~universe in
       Printf.bprintf buf "enum-columns %d\n" (List.length cols);
       List.iter
         (fun (c : Independent.column) ->
           Printf.bprintf buf "col [%s] [%s] [%s]\n"
             (String.concat "," (List.map string_of_int c.Independent.links))
             (String.concat "," (List.map string_of_int c.Independent.rates))
             (String.concat "," (List.map (Printf.sprintf "%h") (Array.to_list c.Independent.mbps))))
         cols));
  Buffer.contents buf

type arm = {
  artifact : string;
  wall_s : float;
  counters : (string * int) list;
  spans : (string * float) list;  (* name, summed seconds *)
}

let run_arm ~seed ~n_flows ~metrics ~kernel () =
  Registry.reset ();
  Registry.set_enabled true;
  let t0 = Unix.gettimeofday () in
  let artifact = perf_pipeline ~seed ~n_flows ~metrics ~kernel () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let snap = Registry.snapshot () in
  Registry.set_enabled false;
  Registry.reset ();
  {
    artifact;
    wall_s;
    counters = snap.Registry.counters;
    spans = List.map (fun (n, d) -> (n, d.Registry.sum)) snap.Registry.spans;
  }

let counter_of arm name = match List.assoc_opt name arm.counters with Some v -> v | None -> 0

let span_of arm name = match List.assoc_opt name arm.spans with Some v -> v | None -> 0.0

(* Raw SINR work per arm: the naive model burns [phy.sinr_evals]; the
   kernel replaces them with (far fewer) [kernel.rate_evals] on
   precomputed power sums. *)
let sinr_work arm = counter_of arm "phy.sinr_evals" + counter_of arm "kernel.rate_evals"

let perf_spans = [ "colgen.available"; "pathbw.solve"; "independent.columns" ]

let json_float f = if Float.is_finite f then Printf.sprintf "%.9g" f else "null"

let write_perf_json ~path ~seed ~quick ~naive ~fast ~identical =
  let buf = Buffer.create 4096 in
  let arm_json a =
    let counters =
      String.concat ","
        (List.map (fun (n, v) -> Printf.sprintf "\"%s\":%d" n v) a.counters)
    in
    let spans =
      String.concat ","
        (List.map (fun (n, v) -> Printf.sprintf "\"%s\":%s" n (json_float v)) a.spans)
    in
    Printf.sprintf "{\"wall_s\":%s,\"counters\":{%s},\"spans\":{%s}}" (json_float a.wall_s)
      counters spans
  in
  let ratio num den = if den > 0.0 then json_float (num /. den) else "null" in
  Printf.bprintf buf "{\n  \"seed\": %Ld,\n  \"quick\": %b,\n" seed quick;
  Printf.bprintf buf "  \"outputs_identical\": %b,\n" identical;
  Printf.bprintf buf "  \"sinr_evals\": {\"naive\": %d, \"fast\": %d, \"ratio\": %s},\n"
    (sinr_work naive) (sinr_work fast)
    (ratio (float_of_int (sinr_work naive)) (float_of_int (sinr_work fast)));
  Printf.bprintf buf "  \"span_speedup\": {%s},\n"
    (String.concat ", "
       (List.map
          (fun s -> Printf.sprintf "\"%s\": %s" s (ratio (span_of naive s) (span_of fast s)))
          perf_spans));
  Printf.bprintf buf "  \"wall_speedup\": %s,\n" (ratio naive.wall_s fast.wall_s);
  Printf.bprintf buf "  \"naive\": %s,\n  \"fast\": %s\n}\n" (arm_json naive) (arm_json fast);
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

let perf ~seed ~quick ~out ~baseline_out ~check () =
  let n_flows = if quick then 4 else 8 in
  let metrics =
    if quick then [ Metrics.Average_e2e_delay ]
    else [ Metrics.Average_e2e_delay; Metrics.E2e_transmission_delay ]
  in
  Printf.printf "perf suite: seed %Ld, %d flows, %s mode\n%!" seed n_flows
    (if quick then "quick" else "full");
  (* Two arms, one claim: the naive SINR model and the conflict kernel
     (both under the warm master) print byte-identical outputs — the
     kernel is behaviourally invisible. *)
  let naive = run_arm ~seed ~n_flows ~metrics ~kernel:false () in
  Printf.printf "  naive:  %.2fs, %d raw SINR evals\n%!" naive.wall_s (sinr_work naive);
  let fast = run_arm ~seed ~n_flows ~metrics ~kernel:true () in
  Printf.printf "  kernel: %.2fs, %d rate evals\n%!" fast.wall_s (sinr_work fast);
  let identical = String.equal naive.artifact fast.artifact in
  Printf.printf "  outputs identical (kernel vs naive): %b\n" identical;
  Printf.printf "  SINR-eval ratio: %.1fx fewer\n"
    (float_of_int (sinr_work naive) /. float_of_int (max 1 (sinr_work fast)));
  List.iter
    (fun s ->
      let n = span_of naive s and f = span_of fast s in
      if f > 0.0 then Printf.printf "  span %-22s %.3fs -> %.3fs (%.1fx)\n" s n f (n /. f))
    perf_spans;
  write_perf_json ~path:out ~seed ~quick ~naive ~fast ~identical;
  Printf.printf "wrote %s\n" out;
  (match baseline_out with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     List.iter (fun (n, v) -> Printf.fprintf oc "%s %d\n" n v) fast.counters;
     close_out oc;
     Printf.printf "wrote counter baseline to %s\n" path);
  let failed = ref false in
  if not identical then begin
    let dump suffix a =
      let path = out ^ suffix in
      let oc = open_out path in
      output_string oc a.artifact;
      close_out oc;
      path
    in
    Printf.eprintf "PERF FAIL: kernel outputs differ from the naive reference (diff %s %s)\n"
      (dump ".naive.txt" naive) (dump ".fast.txt" fast);
    failed := true
  end;
  (match check with
   | None -> ()
   | Some path ->
     (* Committed-counter regression gate: every baseline counter may
        grow by at most 10% (plus a slack of 5 for tiny counts). *)
     let ic = open_in path in
     (try
        while true do
          let line = input_line ic in
          match String.split_on_char ' ' (String.trim line) with
          | [ name; v ] when v <> "" ->
            let base = int_of_string v in
            let cur = counter_of fast name in
            let limit = int_of_float (ceil (1.10 *. float_of_int base)) + 5 in
            if cur > limit then begin
              Printf.eprintf "PERF FAIL: counter %s regressed: %d > %d (baseline %d +10%%)\n" name
                cur limit base;
              failed := true
            end
          | _ -> ()
        done
      with End_of_file -> close_in ic));
  if !failed then exit 1

(* --- sweep suite: the Wsn_engine pool on the Fig. 3 grid ------------ *)

module Engine = Wsn_engine

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* Three sweep runs of one grid: -j1 cold, -j4 cold (speedup and
   byte-determinism claims) and -j4 warm over the -j4 cache (cache-hit
   claim).  Writes BENCH_sweep.json; exits 1 when the cold outputs
   diverge or the warm run misses the cache. *)
let sweep_bench ~quick ~out () =
  let n_seeds = if quick then 3 else 6 in
  let n_flows = if quick then 3 else 8 in
  let seeds = List.init n_seeds (fun i -> Int64.of_int (i + 1)) in
  let specs =
    Engine.Grid.specs ~kind:"fig3" ~seeds
      ~metrics:(List.map Wsn_routing.Metrics.name Wsn_routing.Metrics.all)
      ~n_flows ~demand_mbps:2.0
  in
  let jobs = List.length specs in
  let tmp =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wsn-sweep-bench-%d" (Unix.getpid ()))
  in
  rm_rf tmp;
  let arm ~workers ~cache_sub ~results_file =
    let cfg =
      {
        Engine.Sweep.default with
        Engine.Sweep.workers;
        retries = 0;
        cache_dir = Some (Filename.concat tmp cache_sub);
        out = Some (Filename.concat tmp results_file);
      }
    in
    Engine.Sweep.run cfg ~runner:Wsn_experiments.Sweep_jobs.runner specs
  in
  Printf.printf "sweep suite: %d jobs (%d seeds x 3 metrics, %d flows)\n%!" jobs n_seeds n_flows;
  let _, s1 = arm ~workers:1 ~cache_sub:"c1" ~results_file:"r1.jsonl" in
  Printf.printf "  -j1 cold: %.2fs (%.1f jobs/s)\n%!" s1.Engine.Sweep.wall_s
    (float_of_int jobs /. s1.Engine.Sweep.wall_s);
  let _, s4 = arm ~workers:4 ~cache_sub:"c4" ~results_file:"r4.jsonl" in
  Printf.printf "  -j4 cold: %.2fs (%.1f jobs/s)\n%!" s4.Engine.Sweep.wall_s
    (float_of_int jobs /. s4.Engine.Sweep.wall_s);
  let _, sw = arm ~workers:4 ~cache_sub:"c4" ~results_file:"rw.jsonl" in
  let read f = In_channel.with_open_bin (Filename.concat tmp f) In_channel.input_all in
  let identical = String.equal (read "r1.jsonl") (read "r4.jsonl") && String.equal (read "r1.jsonl") (read "rw.jsonl") in
  let hit_rate = float_of_int sw.Engine.Sweep.cached /. float_of_int (max 1 sw.Engine.Sweep.total) in
  let speedup = s1.Engine.Sweep.wall_s /. Float.max 1e-9 s4.Engine.Sweep.wall_s in
  Printf.printf "  -j4 warm: %.2fs, cache hits %d/%d\n" sw.Engine.Sweep.wall_s
    sw.Engine.Sweep.cached sw.Engine.Sweep.total;
  let cores = Domain.recommended_domain_count () in
  Printf.printf "  outputs identical (-j1/-j4/warm): %b\n" identical;
  Printf.printf "  -j4 over -j1 speedup: %.2fx (on %d core%s)\n" speedup cores
    (if cores = 1 then "" else "s");
  let oc = open_out out in
  Printf.fprintf oc
    "{\n  \"jobs\": %d,\n  \"cores\": %d,\n  \"outputs_identical\": %b,\n  \"wall_j1_s\": %.6f,\n  \"wall_j4_s\": %.6f,\n\
    \  \"jobs_per_s_j1\": %.3f,\n  \"jobs_per_s_j4\": %.3f,\n  \"speedup_j4_over_j1\": %.3f,\n\
    \  \"warm_wall_s\": %.6f,\n  \"warm_cache_hit_rate\": %.4f\n}\n"
    jobs cores identical s1.Engine.Sweep.wall_s s4.Engine.Sweep.wall_s
    (float_of_int jobs /. Float.max 1e-9 s1.Engine.Sweep.wall_s)
    (float_of_int jobs /. Float.max 1e-9 s4.Engine.Sweep.wall_s)
    speedup sw.Engine.Sweep.wall_s hit_rate;
  close_out oc;
  Printf.printf "wrote %s\n" out;
  rm_rf tmp;
  if not identical then begin
    Printf.eprintf "SWEEP FAIL: -j1, -j4 and warm results are not byte-identical\n";
    exit 1
  end;
  if hit_rate < 0.95 then begin
    Printf.eprintf "SWEEP FAIL: warm cache-hit rate %.2f < 0.95\n" hit_rate;
    exit 1
  end

(* --- parallel suite: domain-pool speedup and determinism ------------ *)

(* Two claims, three domain counts each.  Pipeline: one admission pass
   plus a warm column-generation and a full enumeration — the two
   multicore hot paths — at 1/2/4 domains on the shared global pool;
   the printed artifact must be byte-identical at every width (the
   pool's fan-in is ordered, so parallelism is behaviourally
   invisible).  Sweep: the same Fig. 3 grid under the in-process
   Domains backend at 1/2/4 domains, against a forked -j1 reference;
   all four result files must match byte for byte.  Identity is gated
   unconditionally; the >= 2x speedup claim is only gated when the
   machine actually has >= 4 cores (a 1-core container can prove
   determinism but not speedup). *)
let parallel_bench ~quick ~out () =
  let seed = 30L in
  let n_flows = if quick then 4 else 8 in
  let metrics = [ Metrics.Average_e2e_delay ] in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "parallel suite: seed %Ld, %d flows, %s mode, %d core%s available\n%!" seed
    n_flows
    (if quick then "quick" else "full")
    cores
    (if cores = 1 then "" else "s");
  let n_seeds = if quick then 3 else 6 in
  let sweep_flows = if quick then 3 else 8 in
  let specs =
    Engine.Grid.specs ~kind:"fig3"
      ~seeds:(List.init n_seeds (fun i -> Int64.of_int (i + 1)))
      ~metrics:(List.map Wsn_routing.Metrics.name Wsn_routing.Metrics.all)
      ~n_flows:sweep_flows ~demand_mbps:2.0
  in
  let jobs = List.length specs in
  let tmp =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wsn-parallel-bench-%d" (Unix.getpid ()))
  in
  rm_rf tmp;
  Unix.mkdir tmp 0o755;
  (* No cache: every arm must pay full compute, or the speedup
     comparison is meaningless. *)
  let sweep_arm ~label ~backend ~workers ~file =
    let cfg =
      {
        Engine.Sweep.default with
        Engine.Sweep.backend;
        workers;
        retries = 0;
        cache_dir = None;
        out = Some (Filename.concat tmp file);
      }
    in
    let _, s = Engine.Sweep.run cfg ~runner:Wsn_experiments.Sweep_jobs.runner specs in
    Printf.printf "  sweep %-12s %.2fs (%.1f jobs/s)\n%!" label s.Engine.Sweep.wall_s
      (float_of_int jobs /. Float.max 1e-9 s.Engine.Sweep.wall_s);
    s.Engine.Sweep.wall_s
  in
  Printf.printf "  sweep grid: %d jobs (%d seeds x 3 metrics, %d flows)\n%!" jobs n_seeds
    sweep_flows;
  (* The forked reference arm must run before anything spawns a
     domain: OCaml 5 forbids [Unix.fork] for the rest of the process
     once any domain has ever been created, even after it is joined. *)
  let wf = sweep_arm ~label:"fork -j1:" ~backend:Engine.Pool.Fork ~workers:1 ~file:"rf.jsonl" in
  (* [perf_pipeline] builds a fresh model (fresh conflict kernel) per
     call, so no arm warms another's memo pool. *)
  let pipeline_arm domains =
    Wsn_parallel.Pool.set_domains domains;
    let t0 = Unix.gettimeofday () in
    let artifact = perf_pipeline ~seed ~n_flows ~metrics ~kernel:true () in
    let wall = Unix.gettimeofday () -. t0 in
    Printf.printf "  pipeline d=%d: %.2fs\n%!" domains wall;
    (artifact, wall)
  in
  let p1, pw1 = pipeline_arm 1 in
  let p2, pw2 = pipeline_arm 2 in
  let p4, pw4 = pipeline_arm 4 in
  Wsn_parallel.Pool.set_domains 1;
  let pipeline_identical = String.equal p1 p2 && String.equal p1 p4 in
  let pipeline_speedup = pw1 /. Float.max 1e-9 pw4 in
  let w1 = sweep_arm ~label:"domains d1:" ~backend:Engine.Pool.Domains ~workers:1 ~file:"r1.jsonl" in
  let w2 = sweep_arm ~label:"domains d2:" ~backend:Engine.Pool.Domains ~workers:2 ~file:"r2.jsonl" in
  let w4 = sweep_arm ~label:"domains d4:" ~backend:Engine.Pool.Domains ~workers:4 ~file:"r4.jsonl" in
  let read f = In_channel.with_open_bin (Filename.concat tmp f) In_channel.input_all in
  let rf = read "rf.jsonl" in
  let sweep_identical =
    String.equal rf (read "r1.jsonl") && String.equal rf (read "r2.jsonl")
    && String.equal rf (read "r4.jsonl")
  in
  let sweep_speedup = w1 /. Float.max 1e-9 w4 in
  rm_rf tmp;
  let gate_speedup = cores >= 4 in
  Printf.printf "  pipeline outputs identical (d1/d2/d4): %b\n" pipeline_identical;
  Printf.printf "  pipeline d4 over d1 speedup: %.2fx\n" pipeline_speedup;
  Printf.printf "  sweep outputs identical (fork/d1/d2/d4): %b\n" sweep_identical;
  Printf.printf "  sweep d4 over d1 speedup: %.2fx (gated: %b, %d core%s)\n" sweep_speedup
    gate_speedup cores
    (if cores = 1 then "" else "s");
  let oc = open_out out in
  Printf.fprintf oc
    "{\n  \"cores\": %d,\n  \"quick\": %b,\n  \"speedup_gated\": %b,\n\
    \  \"pipeline\": {\"wall_d1_s\": %.6f, \"wall_d2_s\": %.6f, \"wall_d4_s\": %.6f,\n\
    \    \"outputs_identical\": %b, \"speedup_d4_over_d1\": %.3f},\n\
    \  \"sweep\": {\"jobs\": %d, \"wall_fork_j1_s\": %.6f, \"wall_d1_s\": %.6f,\n\
    \    \"wall_d2_s\": %.6f, \"wall_d4_s\": %.6f,\n\
    \    \"outputs_identical\": %b, \"speedup_d4_over_d1\": %.3f}\n}\n"
    cores quick gate_speedup pw1 pw2 pw4 pipeline_identical pipeline_speedup jobs wf w1 w2 w4
    sweep_identical sweep_speedup;
  close_out oc;
  Printf.printf "wrote %s\n" out;
  let failed = ref false in
  if not pipeline_identical then begin
    Printf.eprintf "PARALLEL FAIL: pipeline outputs differ across domain counts\n";
    failed := true
  end;
  if not sweep_identical then begin
    Printf.eprintf "PARALLEL FAIL: sweep results differ across backends/domain counts\n";
    failed := true
  end;
  if gate_speedup && sweep_speedup < 2.0 then begin
    Printf.eprintf "PARALLEL FAIL: sweep d4 speedup %.2fx < 2.0x on %d cores\n" sweep_speedup
      cores;
    failed := true
  end;
  if !failed then exit 1

(* --- mac suite: event-driven fast path vs reference slot loop -------- *)

module Sim = Wsn_mac.Sim

(* Hex floats: byte-identity of the two loops is the claim, so the
   artifact must not round anything away. *)
let mac_artifact stats_list =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (s : Sim.stats) ->
      Printf.bprintf buf "run %d sent %d coll %d\n" s.Sim.duration_us s.Sim.frames_sent
        s.Sim.collisions;
      Array.iter (fun i -> Printf.bprintf buf "idle %h\n" i) s.Sim.node_idleness;
      Array.iter
        (fun (f : Sim.flow_stats) ->
          Printf.bprintf buf "flow %h %h %d %d %h %h\n" f.Sim.offered_mbps f.Sim.delivered_mbps
            f.Sim.frames_delivered f.Sim.frames_dropped f.Sim.mean_latency_us f.Sim.p95_latency_us)
        s.Sim.flows)
    stats_list;
  Buffer.contents buf

(* Saturated: eight co-located sender/receiver pairs at far beyond link
   capacity — every slot has contenders, so idle-skipping never fires
   and the win must come from bitsets and allocation-freedom alone. *)
let mac_scenario_saturated () =
  let n_pairs = 8 in
  let positions =
    Array.init (2 * n_pairs) (fun i ->
        if i < n_pairs then Wsn_net.Point.make (float_of_int i *. 2.0) 0.0
        else Wsn_net.Point.make (float_of_int (i - n_pairs) *. 2.0) 50.0)
  in
  let topo = Wsn_net.Topology.create positions in
  let flows =
    List.init n_pairs (fun i ->
        match
          Wsn_graph.Digraph.find_edge (Wsn_net.Topology.graph topo) ~src:i ~dst:(i + n_pairs)
        with
        | Some e -> { Sim.links = [ e.Wsn_graph.Digraph.id ]; demand_mbps = 80.0 }
        | None -> failwith "mac bench: missing pair link")
  in
  (topo, flows)

(* Light load: a multihop chain mostly sitting idle between frames —
   the idle-skip headline case. *)
let mac_scenario_light () =
  let topo = Wsn_net.Builders.chain ~spacing_m:50.0 8 in
  let flows = [ { Sim.links = Wsn_net.Builders.chain_hop_links topo; demand_mbps = 0.5 } ] in
  (topo, flows)

let mac_bench ~quick ~out () =
  let seeds = [ 1L; 2L; 3L ] in
  Printf.printf "mac suite: %s mode, %d seeds per scenario\n%!"
    (if quick then "quick" else "full")
    (List.length seeds);
  let scenario name (topo, flows) ~duration_us =
    (* Both arms timed with telemetry off (the shipped configuration);
       a separate untimed fast run collects the skip counter. *)
    let time runner =
      let t0 = Unix.gettimeofday () in
      let r = List.map (fun seed -> runner ~seed) seeds in
      (r, Unix.gettimeofday () -. t0)
    in
    let prepared = Sim.prepare topo in
    let fast, wall_fast =
      time (fun ~seed -> Sim.run ~seed ~prepared topo ~flows ~duration_us)
    in
    let reference, wall_ref =
      time (fun ~seed -> Sim.run_reference ~seed topo ~flows ~duration_us)
    in
    let identical = String.equal (mac_artifact fast) (mac_artifact reference) in
    Registry.reset ();
    Registry.set_enabled true;
    ignore (Sim.run ~seed:1L ~prepared topo ~flows ~duration_us);
    let snap = Registry.snapshot () in
    Registry.set_enabled false;
    Registry.reset ();
    let counter n = match List.assoc_opt n snap.Registry.counters with Some v -> v | None -> 0 in
    let skipped = counter "mac.slots_skipped" in
    let total_slots = counter "mac.slots" in
    let speedup = wall_ref /. Float.max 1e-9 wall_fast in
    Printf.printf "  %-9s fast %.3fs, reference %.3fs: %.1fx; identical %b; skipped %d/%d slots\n%!"
      name wall_fast wall_ref speedup identical skipped total_slots;
    (name, duration_us, wall_fast, wall_ref, speedup, identical, skipped, total_slots)
  in
  let sat =
    scenario "saturated" (mac_scenario_saturated ())
      ~duration_us:(if quick then 300_000 else 1_000_000)
  in
  let light =
    scenario "light" (mac_scenario_light ())
      ~duration_us:(if quick then 1_000_000 else 4_000_000)
  in
  let scenario_json (name, duration_us, wf, wr, speedup, identical, skipped, total) =
    Printf.sprintf
      "\"%s\": {\"duration_us\": %d, \"seeds\": %d, \"wall_fast_s\": %.6f,\n\
      \    \"wall_reference_s\": %.6f, \"speedup\": %.3f, \"outputs_identical\": %b,\n\
      \    \"slots_skipped\": %d, \"total_slots\": %d}"
      name duration_us (List.length seeds) wf wr speedup identical skipped total
  in
  let oc = open_out out in
  Printf.fprintf oc "{\n  \"quick\": %b,\n  %s,\n  %s\n}\n" quick (scenario_json sat)
    (scenario_json light);
  close_out oc;
  Printf.printf "wrote %s\n" out;
  let failed = ref false in
  let gate (name, _, _, _, speedup, identical, _, _) ~min_speedup =
    if not identical then begin
      Printf.eprintf "MAC FAIL: %s fast-path outputs differ from the reference loop\n" name;
      failed := true
    end;
    if speedup < min_speedup then begin
      Printf.eprintf "MAC FAIL: %s speedup %.2fx < %.1fx\n" name speedup min_speedup;
      failed := true
    end
  in
  gate sat ~min_speedup:1.3;
  gate light ~min_speedup:3.0;
  if !failed then exit 1

(* --- admission server suite ---------------------------------------- *)

module Session = Wsn_admission.Session
module Trace = Wsn_workload.Scenarios.Admission_trace

(* Warm (resident incremental state) vs cold (batch pipeline per query)
   admission serving on the paper's 30-node topology.  Two gates:
   response transcripts must be byte-identical (unconditional — this is
   the correctness contract of the warm path), and in full mode the
   warm arm must show a real speedup.  The workload leans on arrivals
   (slow releases, query-heavy) so the session accumulates enough live
   flows for the universes where enumeration hurts and warm state
   pays. *)
let serve_bench ~seed ~quick ~out () =
  let n_ops = if quick then 120 else 500 in
  let trace = Trace.generate ~n_ops ~arrival_rate:2.0 ~release_rate:0.08 ~query_rate:2.0 ~seed () in
  let lines = Trace.to_request_lines trace in
  Printf.printf "serve suite: %s mode, %d ops, seed %Ld\n%!"
    (if quick then "quick" else "full")
    n_ops seed;
  (* Fresh scenario (and conflict kernel) per arm, so neither arm rides
     the other's memoised enumerations. *)
  let run_arm mode =
    let scenario = RS.generate ~seed () in
    let session =
      Session.create ~mode ~topo:scenario.RS.topology ~model:scenario.RS.model ()
    in
    let t0 = Unix.gettimeofday () in
    let responses =
      List.mapi (fun i line -> fst (Session.handle_line session ~seq:(i + 1) line)) lines
    in
    (String.concat "\n" responses, Unix.gettimeofday () -. t0)
  in
  let warm_transcript, wall_warm = run_arm Session.Warm in
  let cold_transcript, wall_cold = run_arm Session.Cold in
  let identical = String.equal warm_transcript cold_transcript in
  let speedup = wall_cold /. Float.max 1e-9 wall_warm in
  let qps = float_of_int n_ops /. Float.max 1e-9 wall_warm in
  (* Untimed telemetry pass on the warm arm: latency histogram for
     p50/p99 and the incremental-state counters.  Deterministic except
     for the latency figures themselves. *)
  Registry.reset ();
  Registry.set_enabled true;
  let telemetry_transcript, _ = run_arm Session.Warm in
  assert (String.equal telemetry_transcript warm_transcript);
  let latency = Registry.span "server.request" in
  let p50_ms = Registry.histogram_percentile latency 50.0 *. 1000.0 in
  let p99_ms = Registry.histogram_percentile latency 99.0 *. 1000.0 in
  let snap = Registry.snapshot () in
  Registry.set_enabled false;
  Registry.reset ();
  let counter n = match List.assoc_opt n snap.Registry.counters with Some v -> v | None -> 0 in
  let digest = Digest.to_hex (Digest.string warm_transcript) in
  Printf.printf
    "  warm %.3fs, cold %.3fs: %.1fx; identical %b; %.0f queries/s; p50 %.3fms p99 %.3fms\n%!"
    wall_warm wall_cold speedup identical qps p50_ms p99_ms;
  Printf.printf "  memo hits %d, schedule reuses %d, pool inserts %d, pool seeds replayed %d\n%!"
    (counter "server.memo_hits") (counter "server.schedule_reuses")
    (counter "colgen.pool_inserts") (counter "colgen.pool_hits");
  (* Quick mode blanks every timing so the artifact is a pure function
     of the seed; the digest still pins the transcript. *)
  let w t = if quick then 0.0 else t in
  let oc = open_out out in
  Printf.fprintf oc
    "{\n\
    \  \"quick\": %b,\n\
    \  \"seed\": %Ld,\n\
    \  \"n_ops\": %d,\n\
    \  \"transcripts_identical\": %b,\n\
    \  \"transcript_md5\": \"%s\",\n\
    \  \"wall_warm_s\": %.6f,\n\
    \  \"wall_cold_s\": %.6f,\n\
    \  \"warm_speedup\": %.3f,\n\
    \  \"queries_per_s\": %.1f,\n\
    \  \"latency_p50_ms\": %.6f,\n\
    \  \"latency_p99_ms\": %.6f,\n\
    \  \"admits\": %d,\n\
    \  \"rejects\": %d,\n\
    \  \"queries\": %d,\n\
    \  \"releases\": %d,\n\
    \  \"memo_hits\": %d,\n\
    \  \"schedule_reuses\": %d,\n\
    \  \"pool_inserts\": %d,\n\
    \  \"pool_hits\": %d\n\
     }\n"
    quick seed n_ops identical digest (w wall_warm) (w wall_cold) (w speedup) (w qps)
    (w p50_ms) (w p99_ms) (counter "server.admits") (counter "server.rejects")
    (counter "server.queries") (counter "server.releases") (counter "server.memo_hits")
    (counter "server.schedule_reuses") (counter "colgen.pool_inserts")
    (counter "colgen.pool_hits");
  close_out oc;
  Printf.printf "wrote %s\n" out;
  let failed = ref false in
  if not identical then begin
    let dump suffix transcript =
      let file = out ^ suffix in
      let oc = open_out file in
      output_string oc transcript;
      output_char oc '\n';
      close_out oc;
      file
    in
    let wf = dump ".warm.txt" warm_transcript in
    let cf = dump ".cold.txt" cold_transcript in
    Printf.eprintf "SERVE FAIL: warm transcript differs from the cold reference (%s vs %s)\n" wf
      cf;
    failed := true
  end;
  if (not quick) && speedup < 1.2 then begin
    Printf.eprintf "SERVE FAIL: warm speedup %.2fx < 1.2x over cold\n" speedup;
    failed := true
  end;
  if !failed then exit 1

(* --- scale suite: Eq. 6 bracket at 100-1000 nodes ------------------- *)

module Scale = Wsn_experiments.Scale
module Proto = Wsn_admission.Protocol

(* The heuristic-pricing tier at scale.  Three claims are gated:
   (1) wire identity — at the paper's 30-node scale the Auto tier's
   availability quantises to the same wire figure as the exact pricer
   (gated unconditionally, quick and full); (2) the bracket is sound —
   quantised lower <= quantised upper on every row (unconditionally);
   (3) speed — the 300-node query answers within 60 s (full mode only;
   quick blanks timings so the artifact is a pure function of the
   seed).  The 1000-node row runs under an anytime iteration cap: its
   lower bound is uncertified by construction, which the artifact
   records rather than hides. *)
let scale_bench ~seed ~quick ~out () =
  (* Each spec is (n_nodes, per-flow demand override).  The default
     0.5 Mbps workload saturates the 1000-node network (its background
     alone needs a ~19x TDMA share — the Gupta-Kumar regime), so the
     full suite carries a second light-load 1000-node row where the
     background fits and the bracket is non-trivial at scale. *)
  let specs =
    if quick then [ (30, None); (100, None); (300, None) ]
    else [ (30, None); (100, None); (300, None); (1000, None); (1000, Some 0.1) ]
  in
  (* Past the exact-certification ceiling the master's degenerate
     resolves dominate; cap the anytime loop rather than chase the
     last fractional Mbps. *)
  let cap n = if n >= 1000 then Some 40 else None in
  let demand_of d = match d with Some d -> d | None -> 0.5 (* scenario default *) in
  Printf.printf "scale suite: %s mode, seed %Ld, N in {%s}\n%!"
    (if quick then "quick" else "full")
    seed
    (String.concat ", "
       (List.map (fun (n, d) -> Printf.sprintf "%d@%.1f" n (demand_of d)) specs));
  let rows =
    List.map
      (fun (n, demand) ->
        let r =
          Scale.query ?max_iterations:(cap n) ?demand_mbps:demand ~pricer:Column_gen.Auto
            ~n_nodes:n ~seed ()
        in
        Printf.printf
          "  n=%4d demand=%.1f links=%5d universe=%4d shards=%d lower=%.3f upper=%.3f \
           gap=%.3f certified=%b cols=%d iters=%d %.2fs\n%!"
          r.Scale.n_nodes (demand_of demand) r.Scale.n_links r.Scale.universe
          r.Scale.n_shards (Proto.mbps r.Scale.lower_mbps) (Proto.mbps r.Scale.upper_mbps)
          (Proto.mbps r.Scale.gap_mbps) r.Scale.certified r.Scale.columns
          r.Scale.iterations r.Scale.seconds;
        (demand_of demand, r))
      specs
  in
  let exact30 = Scale.query ~pricer:Column_gen.Exact ~n_nodes:30 ~seed () in
  let auto30 = snd (List.hd rows) in
  let wire_identical =
    auto30.Scale.certified
    && Proto.mbps auto30.Scale.lower_mbps = Proto.mbps exact30.Scale.lower_mbps
  in
  let bracket_sound =
    List.for_all
      (fun (_, r) -> Proto.mbps r.Scale.lower_mbps <= Proto.mbps r.Scale.upper_mbps)
      rows
  in
  let secs_at n =
    match List.find_opt (fun (_, r) -> r.Scale.n_nodes = n) rows with
    | Some (_, r) -> r.Scale.seconds
    | None -> 0.0
  in
  Printf.printf "  auto = exact at n=30 (wire): %b; bracket sound: %b\n%!" wire_identical
    bracket_sound;
  let w t = if quick then 0.0 else t in
  let oc = open_out out in
  Printf.fprintf oc "{\n  \"quick\": %b,\n  \"seed\": %Ld,\n  \"wire_identical_n30\": %b,\n"
    quick seed wire_identical;
  Printf.fprintf oc "  \"bracket_sound\": %b,\n  \"rows\": [\n" bracket_sound;
  List.iteri
    (fun i (demand, r) ->
      Printf.fprintf oc
        "    { \"n_nodes\": %d, \"demand_mbps\": %.3f, \"n_links\": %d, \"n_flows\": %d, \
         \"universe\": %d, \"shards\": %d,\n\
        \      \"lower_mbps\": %.3f, \"upper_mbps\": %.3f, \"gap_mbps\": %.3f, \
         \"certified\": %b,\n\
        \      \"columns\": %d, \"iterations\": %d, \"wall_s\": %.6f }%s\n"
        r.Scale.n_nodes demand r.Scale.n_links r.Scale.n_flows r.Scale.universe
        r.Scale.n_shards (Proto.mbps r.Scale.lower_mbps) (Proto.mbps r.Scale.upper_mbps)
        (Proto.mbps r.Scale.gap_mbps) r.Scale.certified r.Scale.columns r.Scale.iterations
        (w r.Scale.seconds)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" out;
  let failed = ref false in
  if not wire_identical then begin
    Printf.eprintf "SCALE FAIL: auto pricer is not wire-identical to exact at n=30\n";
    failed := true
  end;
  if not bracket_sound then begin
    Printf.eprintf "SCALE FAIL: a lower bound exceeds its clique upper bound\n";
    failed := true
  end;
  if (not quick) && secs_at 300 >= 60.0 then begin
    Printf.eprintf "SCALE FAIL: 300-node query took %.1fs (>= 60s)\n" (secs_at 300);
    failed := true
  end;
  if !failed then exit 1

(* --- soak suite: dynamic scenarios, incremental kernel upkeep ------- *)

module Dscenario = Wsn_dynamics.Scenario
module Dsoak = Wsn_dynamics.Soak

(* Replays one seeded time-varying scenario under both kernel
   maintenance modes.  Gated claims: (1) identity — the incremental
   [Sim.apply_delta] chain yields byte-identical kernels (digest per
   epoch) and identical mode-independent rows to per-epoch full
   rebuilds, at both the tracked size and the profile size
   (unconditionally, quick and full); (2) the probe was trackable in
   at least one epoch (unconditionally); (3) speed — summed over the
   churn epochs of the profile scenario (no LP/MAC, kernel upkeep
   only, at a size where prepare is measurable), patching is at least
   2x faster than rebuilding (full mode only; quick blanks every
   timing so the artifact is a pure function of the seed). *)
let soak_bench ~seed ~quick ~out () =
  let epochs = if quick then 12 else 48 in
  let horizon_h = if quick then 6.0 else 24.0 in
  let window_us = if quick then 200_000 else 1_000_000 in
  Printf.printf "soak suite: %s mode, seed %Ld, %d epochs / %.0f h\n%!"
    (if quick then "quick" else "full") seed epochs horizon_h;
  let params = { Dscenario.default with Dscenario.epochs; horizon_h } in
  let sc = Dscenario.generate ~params ~seed () in
  let timed_run mode =
    let t0 = Unix.gettimeofday () in
    let t = Dsoak.run ~mode ~window_us sc in
    (t, Unix.gettimeofday () -. t0)
  in
  let inc, wall_inc = timed_run Dsoak.Incremental in
  let reb, wall_reb = timed_run Dsoak.Rebuild in
  let digests t = List.map (fun r -> r.Dsoak.kernel_digest) t.Dsoak.rows in
  let digests_identical = digests inc = digests reb in
  let outputs_identical = Dsoak.artifact inc = Dsoak.artifact reb in
  let tracked =
    List.length (List.filter (fun r -> r.Dsoak.tracked) inc.Dsoak.rows)
  in
  let churn =
    List.length
      (List.filter (fun r -> r.Dsoak.kernel_op = Dsoak.Patched) inc.Dsoak.rows)
  in
  Printf.printf
    "  n=%d: tracked=%d/%d churn=%d kernels identical=%b rows identical=%b %.2fs/%.2fs\n%!"
    Dscenario.default.Dscenario.n_nodes tracked epochs churn digests_identical
    outputs_identical wall_inc wall_reb;
  (* Kernel-upkeep profile: same timeline shape at a size where a full
     prepare is measurable, world + kernels only (track:false), so the
     sums isolate exactly the patched path vs the rebuilt path. *)
  let profile_n = if quick then 60 else 300 in
  let pparams =
    { Dscenario.default with Dscenario.n_nodes = profile_n; epochs; horizon_h }
  in
  let psc = Dscenario.generate ~params:pparams ~seed () in
  let pinc = Dsoak.run ~mode:Dsoak.Incremental ~track:false psc in
  let preb = Dsoak.run ~mode:Dsoak.Rebuild ~track:false psc in
  let profile_identical = digests pinc = digests preb in
  let churn_idx =
    List.filter_map
      (fun r ->
        if r.Dsoak.kernel_op = Dsoak.Patched then Some r.Dsoak.index else None)
      pinc.Dsoak.rows
  in
  let churn_sum t =
    List.fold_left
      (fun a r ->
        if List.mem r.Dsoak.index churn_idx then a +. r.Dsoak.prepare_s else a)
      0.0 t.Dsoak.rows
  in
  let inc_prepare_s = churn_sum pinc in
  let reb_prepare_s = churn_sum preb in
  let speedup = if inc_prepare_s > 0.0 then reb_prepare_s /. inc_prepare_s else 0.0 in
  Printf.printf
    "  profile n=%d: churn=%d rebuild=%.4fs incremental=%.4fs speedup=%.1fx identical=%b\n%!"
    profile_n (List.length churn_idx) reb_prepare_s inc_prepare_s speedup
    profile_identical;
  let w t = if quick then 0.0 else t in
  let num v = if Float.is_nan v then "null" else Printf.sprintf "%.6f" v in
  let errors_json errs =
    String.concat ", "
      (List.map (fun (name, e) -> Printf.sprintf "\"%s\": %s" name (num e)) errs)
  in
  let oc = open_out out in
  Printf.fprintf oc
    "{\n  \"quick\": %b,\n  \"seed\": %Ld,\n  \"n_nodes\": %d,\n  \"epochs\": %d,\n\
    \  \"horizon_h\": %.3f,\n  \"window_us\": %d,\n  \"tracked_epochs\": %d,\n\
    \  \"churn_epochs\": %d,\n  \"kernel_digests_identical\": %b,\n\
    \  \"rows_identical\": %b,\n  \"tracking_error_mbps\": { %s },\n\
    \  \"staleness_error_mbps\": { %s },\n  \"wall_incremental_s\": %.6f,\n\
    \  \"wall_rebuild_s\": %.6f,\n  \"simulated_hours_per_s\": %.3f,\n\
    \  \"profile\": { \"n_nodes\": %d, \"churn_epochs\": %d, \"digests_identical\": %b,\n\
    \    \"rebuild_prepare_s\": %.6f, \"incremental_prepare_s\": %.6f, \"speedup\": %.3f }\n}\n"
    quick seed Dscenario.default.Dscenario.n_nodes epochs horizon_h window_us
    tracked churn digests_identical outputs_identical
    (errors_json (Dsoak.tracking_errors inc))
    (errors_json (Dsoak.staleness_errors inc))
    (w wall_inc) (w wall_reb)
    (w (if wall_inc > 0.0 then horizon_h /. wall_inc else 0.0))
    profile_n (List.length churn_idx) profile_identical (w reb_prepare_s)
    (w inc_prepare_s) (w speedup);
  close_out oc;
  Printf.printf "wrote %s\n" out;
  let failed = ref false in
  if not digests_identical then begin
    Printf.eprintf "SOAK FAIL: incremental kernel digests differ from rebuilds\n";
    failed := true
  end;
  if not outputs_identical then begin
    Printf.eprintf "SOAK FAIL: incremental rows differ from rebuild rows\n";
    failed := true
  end;
  if not profile_identical then begin
    Printf.eprintf "SOAK FAIL: profile kernel digests differ from rebuilds (n=%d)\n"
      profile_n;
    failed := true
  end;
  if tracked = 0 then begin
    Printf.eprintf "SOAK FAIL: the probe pair was never trackable\n";
    failed := true
  end;
  if (not quick) && speedup < 2.0 then begin
    Printf.eprintf "SOAK FAIL: churn-epoch prepare speedup %.2fx (< 2x)\n" speedup;
    failed := true
  end;
  if !failed then exit 1

(* --- master suite: stabilised column generation vs reference simplex - *)

(* Runs the same Eq. 6 scale queries under two master-LP
   configurations: the shipped stabilised arm (Devex pricing + dual
   stabilisation + degenerate-pivot perturbation) and the reference
   arm (Dantzig, unstabilised).  Gated claims: (1) wire identity —
   both arms quantise to the same Protocol.mbps answer with equal
   certification on every row, unconditionally; (2) full mode only,
   on the 1000-node light-load row (the degenerate regime the scale
   suite caps at 40 iterations): the stabilised arm spends >= 3x
   fewer warm-resolve pivots per generated column and >= 2x less
   resolve wall time.  Quick mode blanks every timing so the artifact
   is a pure function of the seed (pivot, column and [lp.elim_cells]
   counts are deterministic). *)
let master_bench ~seed ~quick ~out () =
  let specs = if quick then [ (300, None) ] else [ (300, None); (1000, Some 0.1) ] in
  let cap n = if n >= 1000 then Some 40 else None in
  let demand_of d = match d with Some d -> d | None -> 0.5 (* scenario default *) in
  Printf.printf "master suite: %s mode, seed %Ld, N in {%s}\n%!"
    (if quick then "quick" else "full")
    seed
    (String.concat ", "
       (List.map (fun (n, d) -> Printf.sprintf "%d@%.1f" n (demand_of d)) specs));
  let counter_of snap name =
    Option.value ~default:0 (List.assoc_opt name snap.Registry.counters)
  in
  let hist_sum snap name =
    match List.assoc_opt name snap.Registry.histograms with
    | Some d -> d.Registry.sum
    | None -> 0.0
  in
  let span_sum snap name =
    match List.assoc_opt name snap.Registry.spans with
    | Some d -> d.Registry.sum
    | None -> 0.0
  in
  (* One arm of one spec, with the registry isolated around the query
     so the counters attribute to exactly this solve. *)
  let arm ~lp_pricing ~stabilize (n, demand) =
    Registry.reset ();
    Registry.set_enabled true;
    let r =
      Scale.query ?max_iterations:(cap n) ?demand_mbps:demand ~pricer:Column_gen.Auto
        ~lp_pricing ~stabilize ~n_nodes:n ~seed ()
    in
    let snap = Registry.snapshot () in
    Registry.set_enabled false;
    Registry.reset ();
    let resolve_pivots = hist_sum snap "lp.pivots_per_resolve" in
    let columns = counter_of snap "lp.columns_added" in
    let ppc = resolve_pivots /. Float.max 1.0 (float_of_int columns) in
    ( r,
      ppc,
      span_sum snap "lp.resolve",
      counter_of snap "lp.degenerate_pivots",
      counter_of snap "colgen.stab_box_widenings",
      columns,
      counter_of snap "lp.elim_cells" )
  in
  let rows =
    List.map
      (fun spec ->
        let n, demand = spec in
        let stab, stab_ppc, stab_resolve_s, stab_degen, widenings, stab_cols, stab_elim =
          arm ~lp_pricing:Column_gen.Devex ~stabilize:true spec
        in
        let refr, ref_ppc, ref_resolve_s, ref_degen, _, ref_cols, ref_elim =
          arm ~lp_pricing:Column_gen.Dantzig ~stabilize:false spec
        in
        Printf.printf
          "  n=%4d demand=%.1f | stabilised: lower=%.3f certified=%b ppc=%.1f \
           resolve=%.3fs degen=%d cols=%d widenings=%d | reference: lower=%.3f \
           certified=%b ppc=%.1f resolve=%.3fs degen=%d cols=%d\n%!"
          n (demand_of demand)
          (Proto.mbps stab.Scale.lower_mbps)
          stab.Scale.certified stab_ppc stab_resolve_s stab_degen stab_cols widenings
          (Proto.mbps refr.Scale.lower_mbps)
          refr.Scale.certified ref_ppc ref_resolve_s ref_degen ref_cols;
        ( spec,
          (stab, stab_ppc, stab_resolve_s, stab_degen, widenings, stab_cols, stab_elim),
          (refr, ref_ppc, ref_resolve_s, ref_degen, ref_cols, ref_elim) ))
      specs
  in
  (* Wire identity is the certified-regime contract: an anytime row
     truncated at the iteration cap may legitimately stop at different
     lower bounds under different pivot orders.  Rows where both arms
     certify must agree exactly at wire precision, and at least one
     such row must exist (the 300-node row certifies in both modes). *)
  let certified_rows =
    List.filter
      (fun (_, (stab, _, _, _, _, _, _), (refr, _, _, _, _, _)) ->
        stab.Scale.certified && refr.Scale.certified)
      rows
  in
  let wire_identical =
    certified_rows <> []
    && List.for_all
         (fun (_, (stab, _, _, _, _, _, _), (refr, _, _, _, _, _)) ->
           Proto.mbps stab.Scale.lower_mbps = Proto.mbps refr.Scale.lower_mbps)
         certified_rows
  in
  Printf.printf "  arms wire-identical on the %d certified row(s): %b\n%!"
    (List.length certified_rows) wire_identical;
  let w t = if quick then 0.0 else t in
  let oc = open_out out in
  Printf.fprintf oc
    "{\n  \"quick\": %b,\n  \"seed\": %Ld,\n  \"wire_identical_certified\": %b,\n"
    quick seed wire_identical;
  Printf.fprintf oc "  \"rows\": [\n";
  List.iteri
    (fun i ((n, demand), (stab, sppc, ss, sd, widen, scols, selim), (refr, rppc, rs, rd, rcols, relim)) ->
      Printf.fprintf oc
        "    { \"n_nodes\": %d, \"demand_mbps\": %.3f,\n\
        \      \"stabilised\": { \"lower_mbps\": %.3f, \"certified\": %b, \
         \"pivots_per_column\": %.3f, \"resolve_s\": %.6f, \"degenerate_pivots\": %d, \
         \"columns\": %d, \"box_widenings\": %d, \"elim_cells\": %d },\n\
        \      \"reference\": { \"lower_mbps\": %.3f, \"certified\": %b, \
         \"pivots_per_column\": %.3f, \"resolve_s\": %.6f, \"degenerate_pivots\": %d, \
         \"columns\": %d, \"elim_cells\": %d } }%s\n"
        n (demand_of demand)
        (Proto.mbps stab.Scale.lower_mbps)
        stab.Scale.certified sppc (w ss) sd scols widen selim
        (Proto.mbps refr.Scale.lower_mbps)
        refr.Scale.certified rppc (w rs) rd rcols relim
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" out;
  let failed = ref false in
  if not wire_identical then begin
    Printf.eprintf
      "MASTER FAIL: stabilised arm is not wire-identical to the reference on a \
       certified row (or no row certified)\n";
    failed := true
  end;
  (if not quick then
     match
       List.find_opt (fun ((n, d), _, _) -> n = 1000 && d <> None) rows
     with
     | None ->
         Printf.eprintf "MASTER FAIL: 1000-node light-load row missing from full run\n";
         failed := true
     | Some (_, (_, sppc, ss, _, _, _, _), (_, rppc, rs, _, _, _)) ->
         let ppc_ratio = if sppc > 0.0 then rppc /. sppc else Float.infinity in
         let time_ratio = if ss > 0.0 then rs /. ss else Float.infinity in
         Printf.printf
           "  n=1000 light load: pivots-per-column ratio %.2fx, resolve-time ratio %.2fx\n%!"
           ppc_ratio time_ratio;
         if ppc_ratio < 3.0 then begin
           Printf.eprintf
             "MASTER FAIL: pivots-per-column only %.2fx better than reference (< 3x)\n"
             ppc_ratio;
           failed := true
         end;
         if time_ratio < 2.0 then begin
           Printf.eprintf
             "MASTER FAIL: resolve wall time only %.2fx better than reference (< 2x)\n"
             time_ratio;
           failed := true
         end);
  if !failed then exit 1

(* --- whatif suite: basis-reuse predictions vs re-solving ------------ *)

module Whatif = Wsn_experiments.Whatif

(* Two claims are gated: (1) correctness — every prediction inside the
   basis-stability range is wire-identical (3-decimal quantisation,
   feasibility flag included) to a fresh certified re-solve of the
   scaled instance, unconditionally in quick and full mode; (2) speed —
   summed over all probes, answering from the cached basis is at least
   5x faster than re-solving (full mode only; quick blanks every
   timing so the artifact is a pure function of the seed).  Out-of-range
   rows are reported but not accuracy-gated: there the restricted
   master may lack columns the scaled optimum needs, which is exactly
   why the engine reports its stability range. *)
let whatif_bench ~seed ~quick ~out () =
  let factors = if quick then [ 0.5; 0.9; 1.1; 1.5 ] else Whatif.default_factors in
  Printf.printf "whatif suite: %s mode, %d factors, seed %Ld\n%!"
    (if quick then "quick" else "full")
    (List.length factors) seed;
  let rows = Whatif.print ~factors ~n_nodes:30 ~seed () in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let predict_s = total (fun r -> r.Whatif.predict_s) in
  let resolve_s = total (fun r -> r.Whatif.resolve_s) in
  let speedup = resolve_s /. Float.max 1e-9 predict_s in
  let in_range_exact = Whatif.all_in_range_exact rows in
  Printf.printf "  predict %.4fs vs resolve %.4fs: %.0fx; in-range wire-exact %b\n%!"
    predict_s resolve_s speedup in_range_exact;
  let w t = if quick then 0.0 else t in
  let oc = open_out out in
  Printf.fprintf oc
    "{\n\
    \  \"quick\": %b,\n\
    \  \"seed\": %Ld,\n\
    \  \"n_nodes\": 30,\n\
    \  \"in_range_wire_exact\": %b,\n\
    \  \"predict_s\": %.6f,\n\
    \  \"resolve_s\": %.6f,\n\
    \  \"predict_speedup\": %.1f,\n\
    \  \"rows\": [\n"
    quick seed in_range_exact (w predict_s) (w resolve_s) (w speedup);
  List.iteri
    (fun i (r : Whatif.row) ->
      Printf.fprintf oc
        "    {\"factor\": %.3f, \"queries\": %d, \"in_range\": %d, \"repivoted\": %d, \
         \"wire_exact\": %d, \"in_range_wire_exact\": %d, \"max_err_mbps\": %.6f}%s\n"
        r.Whatif.factor r.Whatif.n_queries r.Whatif.in_range r.Whatif.repivoted
        r.Whatif.wire_exact r.Whatif.in_range_wire_exact r.Whatif.max_err_mbps
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" out;
  let failed = ref false in
  if not in_range_exact then begin
    Printf.eprintf
      "WHATIF FAIL: an in-range prediction is not wire-identical to its re-solve\n";
    failed := true
  end;
  if (not quick) && speedup < 5.0 then begin
    Printf.eprintf "WHATIF FAIL: prediction only %.1fx faster than re-solving (< 5x)\n"
      speedup;
    failed := true
  end;
  if !failed then exit 1

(* Regeneration runs with telemetry enabled and the counters are
   snapshotted to [BENCH_telemetry.json] before the Bechamel timing
   pass, so the baseline is a pure function of [--seed] (timing
   iteration counts vary run-to-run and must not pollute it).
   Telemetry is disabled again for the timing pass: counters cost a
   branch either way, but the benchmark should measure the shipped
   configuration. *)
let () =
  let seed = ref 30L in
  let out = ref "BENCH_telemetry.json" in
  let skip_timing = ref false in
  let perf_mode = ref false in
  let perf_quick = ref false in
  let perf_out = ref "BENCH_perf.json" in
  let perf_baseline = ref "" in
  let perf_check = ref "" in
  let sweep_mode = ref false in
  let sweep_quick = ref false in
  let sweep_out = ref "BENCH_sweep.json" in
  let parallel_mode = ref false in
  let parallel_quick = ref false in
  let parallel_out = ref "BENCH_parallel.json" in
  let mac_mode = ref false in
  let mac_quick = ref false in
  let mac_out = ref "BENCH_mac.json" in
  let serve_mode = ref false in
  let serve_quick = ref false in
  let serve_out = ref "BENCH_server.json" in
  let scale_mode = ref false in
  let scale_quick = ref false in
  let scale_out = ref "BENCH_scale.json" in
  let soak_mode = ref false in
  let soak_quick = ref false in
  let soak_out = ref "BENCH_soak.json" in
  let master_mode = ref false in
  let master_quick = ref false in
  let master_out = ref "BENCH_master.json" in
  let whatif_mode = ref false in
  let whatif_quick = ref false in
  let whatif_out = ref "BENCH_whatif.json" in
  Arg.parse
    [
      ( "--seed",
        Arg.String
          (fun s ->
            match Int64.of_string_opt s with
            | Some v -> seed := v
            | None -> raise (Arg.Bad (Printf.sprintf "--seed: %S is not an integer" s))),
        "SEED experiment seed (default 30)" );
      ("--telemetry-out", Arg.Set_string out, "FILE telemetry snapshot path (default BENCH_telemetry.json)");
      ("--no-timing", Arg.Set skip_timing, " regenerate figures and telemetry only, skip Bechamel");
      ("--perf", Arg.Set perf_mode, " run the naive-vs-kernel perf suite instead of the figure pass");
      ("--perf-quick", Arg.Unit (fun () -> perf_mode := true; perf_quick := true), " perf suite, reduced workload (fixed time budget)");
      ("--perf-out", Arg.Set_string perf_out, "FILE perf report path (default BENCH_perf.json)");
      ("--write-perf-baseline", Arg.Set_string perf_baseline, "FILE dump fast-arm counters as a flat baseline");
      ("--check-perf", Arg.Set_string perf_check, "FILE fail if fast-arm counters exceed baseline by >10%");
      ("--sweep", Arg.Set sweep_mode, " run the Wsn_engine sweep suite (-j1 vs -j4 vs warm cache)");
      ("--sweep-quick", Arg.Unit (fun () -> sweep_mode := true; sweep_quick := true), " sweep suite, reduced grid");
      ("--sweep-out", Arg.Set_string sweep_out, "FILE sweep report path (default BENCH_sweep.json)");
      ("--parallel", Arg.Set parallel_mode, " run the domain-pool parallel suite (1/2/4 domains, determinism + speedup)");
      ("--parallel-quick", Arg.Unit (fun () -> parallel_mode := true; parallel_quick := true), " parallel suite, reduced workload");
      ("--parallel-out", Arg.Set_string parallel_out, "FILE parallel report path (default BENCH_parallel.json)");
      ("--mac", Arg.Set mac_mode, " run the MAC simulator suite (event-driven fast path vs reference loop)");
      ("--mac-quick", Arg.Unit (fun () -> mac_mode := true; mac_quick := true), " mac suite, reduced horizons");
      ("--mac-out", Arg.Set_string mac_out, "FILE mac report path (default BENCH_mac.json)");
      ("--serve", Arg.Set serve_mode, " run the admission-server suite (warm incremental vs cold reference)");
      ("--serve-quick", Arg.Unit (fun () -> serve_mode := true; serve_quick := true), " serve suite, reduced trace, timing blanked (deterministic artifact)");
      ("--serve-out", Arg.Set_string serve_out, "FILE serve report path (default BENCH_server.json)");
      ("--scale", Arg.Set scale_mode, " run the scale suite (Eq. 6 bracket at 30-1000 nodes, heuristic pricing)");
      ("--scale-quick", Arg.Unit (fun () -> scale_mode := true; scale_quick := true), " scale suite up to 300 nodes, timing blanked (deterministic artifact)");
      ("--scale-out", Arg.Set_string scale_out, "FILE scale report path (default BENCH_scale.json)");
      ("--soak", Arg.Set soak_mode, " run the soak suite (dynamic scenario, incremental vs rebuilt kernels, tracking error)");
      ("--soak-quick", Arg.Unit (fun () -> soak_mode := true; soak_quick := true), " soak suite, short horizon, timing blanked (deterministic artifact)");
      ("--soak-out", Arg.Set_string soak_out, "FILE soak report path (default BENCH_soak.json)");
      ("--master", Arg.Set master_mode, " run the master-LP suite (stabilised Devex column generation vs Dantzig reference)");
      ("--master-quick", Arg.Unit (fun () -> master_mode := true; master_quick := true), " master suite at 300 nodes only, timing blanked (deterministic artifact)");
      ("--master-out", Arg.Set_string master_out, "FILE master report path (default BENCH_master.json)");
      ("--whatif", Arg.Set whatif_mode, " run the whatif suite (basis-reuse predictions vs certified re-solves)");
      ("--whatif-quick", Arg.Unit (fun () -> whatif_mode := true; whatif_quick := true), " whatif suite, fewer factors, timing blanked (deterministic artifact)");
      ("--whatif-out", Arg.Set_string whatif_out, "FILE whatif report path (default BENCH_whatif.json)");
    ]
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench [--seed SEED] [--telemetry-out FILE] [--no-timing] [--perf|--perf-quick] [--perf-out FILE] [--write-perf-baseline FILE] [--check-perf FILE] [--sweep|--sweep-quick] [--sweep-out FILE] [--parallel|--parallel-quick] [--parallel-out FILE] [--mac|--mac-quick] [--mac-out FILE] [--serve|--serve-quick] [--serve-out FILE]";
  if !whatif_mode then begin
    whatif_bench ~seed:!seed ~quick:!whatif_quick ~out:!whatif_out ();
    exit 0
  end;
  if !master_mode then begin
    master_bench ~seed:!seed ~quick:!master_quick ~out:!master_out ();
    exit 0
  end;
  if !soak_mode then begin
    soak_bench ~seed:!seed ~quick:!soak_quick ~out:!soak_out ();
    exit 0
  end;
  if !scale_mode then begin
    scale_bench ~seed:!seed ~quick:!scale_quick ~out:!scale_out ();
    exit 0
  end;
  if !serve_mode then begin
    serve_bench ~seed:!seed ~quick:!serve_quick ~out:!serve_out ();
    exit 0
  end;
  if !mac_mode then begin
    mac_bench ~quick:!mac_quick ~out:!mac_out ();
    exit 0
  end;
  if !parallel_mode then begin
    parallel_bench ~quick:!parallel_quick ~out:!parallel_out ();
    exit 0
  end;
  if !sweep_mode then begin
    sweep_bench ~quick:!sweep_quick ~out:!sweep_out ();
    exit 0
  end;
  if !perf_mode then begin
    perf ~seed:!seed ~quick:!perf_quick ~out:!perf_out
      ~baseline_out:(if !perf_baseline = "" then None else Some !perf_baseline)
      ~check:(if !perf_check = "" then None else Some !perf_check)
      ();
    exit 0
  end;
  Wsn_telemetry.Registry.set_enabled true;
  regenerate ~seed:!seed ();
  let snap = Wsn_telemetry.Registry.snapshot () in
  (* The baseline must diff clean run-to-run: keep span *counts* (a
     pure function of the seed) but blank the wall-clock stats, which
     encode as null. *)
  let deterministic =
    {
      snap with
      Wsn_telemetry.Registry.spans =
        List.map
          (fun (name, d) ->
            ( name,
              {
                d with
                Wsn_telemetry.Registry.sum = nan;
                min_v = nan;
                max_v = nan;
                p50 = nan;
                p90 = nan;
                p99 = nan;
              } ))
          snap.Wsn_telemetry.Registry.spans;
    }
  in
  Wsn_telemetry.Export.write_file !out deterministic;
  Printf.printf "wrote telemetry baseline to %s (seed %Ld)\n" !out !seed;
  Wsn_telemetry.Registry.set_enabled false;
  if not !skip_timing then begin
    print_newline ();
    benchmark ~seed:!seed ()
  end
