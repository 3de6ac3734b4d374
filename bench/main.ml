(* Artifact generator: regenerates every table/figure of the paper and
   runs the gated suites behind the BENCH_*.json artifacts.  One suite
   per run, chosen by name from [suites] at the bottom; each returns its
   failed gates.  Timing lives in benchmark/ (python3 benchmark/run.py). *)

module S2 = Wsn_workload.Scenarios.Scenario_ii
module RS = Wsn_workload.Scenarios.Random_scenario
module Registry = Wsn_telemetry.Registry

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

(* Regeneration runs with telemetry enabled and writes the counters to
   [out] (BENCH_telemetry.json), so the baseline is a pure function of
   the seed.  There is no reduced workload: [quick] is ignored. *)
let figures ~seed ~quick:_ ~out =
  Registry.set_enabled true;
  regenerate ~seed ();
  let snap = Registry.snapshot () in
  (* The baseline must diff clean run-to-run: keep span *counts* (a
     pure function of the seed) but blank the wall-clock stats, which
     encode as null. *)
  let deterministic =
    {
      snap with
      Registry.spans =
        List.map
          (fun (name, d) ->
            ( name,
              {
                d with
                Registry.sum = nan;
                min_v = nan;
                max_v = nan;
                p50 = nan;
                p90 = nan;
                p99 = nan;
              } ))
          snap.Registry.spans;
    }
  in
  Wsn_telemetry.Export.write_file out deterministic;
  Printf.printf "wrote telemetry baseline to %s (seed %Ld)\n" out seed;
  Registry.set_enabled false;
  []

(* A suite's failed gates: the message of every [(passed, message)]
   pair that did not pass. *)
let failures gates = List.filter_map (fun (ok, msg) -> if ok then None else Some msg) gates

(* Writes [text] to [path] and returns [path]: the failure dumps a
   mismatched identity gate leaves beside its artifact. *)
let dump path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  path

(* --- perf suite: naive-model reference vs conflict-kernel fast path -- *)

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

type arm = { artifact : string; counters : (string * int) list }

let run_arm ~seed ~n_flows ~metrics ~kernel () =
  Registry.reset ();
  Registry.set_enabled true;
  let artifact = perf_pipeline ~seed ~n_flows ~metrics ~kernel () in
  let snap = Registry.snapshot () in
  Registry.set_enabled false;
  Registry.reset ();
  { artifact; counters = snap.Registry.counters }

let counter_of arm name = match List.assoc_opt name arm.counters with Some v -> v | None -> 0

(* Raw SINR work per arm: the naive model burns [phy.sinr_evals]; the
   kernel replaces them with (far fewer) [kernel.rate_evals] on
   precomputed power sums. *)
let sinr_work arm = counter_of arm "phy.sinr_evals" + counter_of arm "kernel.rate_evals"

let json_float f = if Float.is_finite f then Printf.sprintf "%.9g" f else "null"

(* Every field is a counter, so the artifact is a pure function of the
   seed. *)
let write_perf_json ~path ~seed ~quick ~naive ~fast ~identical =
  let buf = Buffer.create 4096 in
  let arm_json a =
    Printf.sprintf "{\"counters\":{%s}}"
      (String.concat "," (List.map (fun (n, v) -> Printf.sprintf "\"%s\":%d" n v) a.counters))
  in
  let ratio num den = if den > 0.0 then json_float (num /. den) else "null" in
  Printf.bprintf buf "{\n  \"seed\": %Ld,\n  \"quick\": %b,\n" seed quick;
  Printf.bprintf buf "  \"outputs_identical\": %b,\n" identical;
  Printf.bprintf buf "  \"sinr_evals\": {\"naive\": %d, \"fast\": %d, \"ratio\": %s},\n"
    (sinr_work naive) (sinr_work fast)
    (ratio (float_of_int (sinr_work naive)) (float_of_int (sinr_work fast)));
  Printf.bprintf buf "  \"naive\": %s,\n  \"fast\": %s\n}\n" (arm_json naive) (arm_json fast);
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

let perf ~seed ~quick ~out ~baseline_out ~check =
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
  Printf.printf "  naive:  %d raw SINR evals\n%!" (sinr_work naive);
  let fast = run_arm ~seed ~n_flows ~metrics ~kernel:true () in
  Printf.printf "  kernel: %d rate evals\n%!" (sinr_work fast);
  let identical = String.equal naive.artifact fast.artifact in
  Printf.printf "  outputs identical (kernel vs naive): %b\n" identical;
  Printf.printf "  SINR-eval ratio: %.1fx fewer\n"
    (float_of_int (sinr_work naive) /. float_of_int (max 1 (sinr_work fast)));
  write_perf_json ~path:out ~seed ~quick ~naive ~fast ~identical;
  Printf.printf "wrote %s\n" out;
  (match baseline_out with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     List.iter (fun (n, v) -> Printf.fprintf oc "%s %d\n" n v) fast.counters;
     close_out oc;
     Printf.printf "wrote counter baseline to %s\n" path);
  let identity =
    if identical then []
    else
      [
        Printf.sprintf "kernel outputs differ from the naive reference (diff %s %s)"
          (dump (out ^ ".naive.txt") naive.artifact)
          (dump (out ^ ".fast.txt") fast.artifact);
      ]
  in
  (* Committed-counter regression gate: every baseline counter may grow
     by at most 10% (plus a slack of 5 for tiny counts). *)
  let regressed =
    match check with
    | None -> []
    | Some path ->
      In_channel.with_open_text path In_channel.input_lines
      |> List.filter_map (fun line ->
             match String.split_on_char ' ' (String.trim line) with
             | [ name; v ] when v <> "" ->
               let base = int_of_string v in
               let cur = counter_of fast name in
               let limit = int_of_float (ceil (1.10 *. float_of_int base)) + 5 in
               if cur > limit then
                 Some
                   (Printf.sprintf "counter %s regressed: %d > %d (baseline %d +10%%)" name cur
                      limit base)
               else None
             | _ -> None)
  in
  identity @ regressed

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

let mac_bench ~seed:_ ~quick ~out =
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
  let gates (name, _, _, _, speedup, identical, _, _) ~min_speedup =
    [
      (identical, Printf.sprintf "%s fast-path outputs differ from the reference loop" name);
      ( speedup >= min_speedup,
        Printf.sprintf "%s speedup %.2fx < %.1fx" name speedup min_speedup );
    ]
  in
  failures (gates sat ~min_speedup:1.3 @ gates light ~min_speedup:3.0)

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
let serve_bench ~seed ~quick ~out =
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
  let identity =
    if identical then []
    else
      let wf = dump (out ^ ".warm.txt") (warm_transcript ^ "\n") in
      let cf = dump (out ^ ".cold.txt") (cold_transcript ^ "\n") in
      [ Printf.sprintf "warm transcript differs from the cold reference (%s vs %s)" wf cf ]
  in
  identity
  @ failures
      [ (quick || speedup >= 1.2, Printf.sprintf "warm speedup %.2fx < 1.2x over cold" speedup) ]

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
let scale_bench ~seed ~quick ~out =
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
  failures
    [
      (wire_identical, "auto pricer is not wire-identical to exact at n=30");
      (bracket_sound, "a lower bound exceeds its clique upper bound");
      ( quick || secs_at 300 < 60.0,
        Printf.sprintf "300-node query took %.1fs (>= 60s)" (secs_at 300) );
    ]

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
let soak_bench ~seed ~quick ~out =
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
  failures
    [
      (digests_identical, "incremental kernel digests differ from rebuilds");
      (outputs_identical, "incremental rows differ from rebuild rows");
      ( profile_identical,
        Printf.sprintf "profile kernel digests differ from rebuilds (n=%d)" profile_n );
      (tracked > 0, "the probe pair was never trackable");
      ( quick || speedup >= 2.0,
        Printf.sprintf "churn-epoch prepare speedup %.2fx (< 2x)" speedup );
    ]

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
let master_bench ~seed ~quick ~out =
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
  let light_row =
    if quick then []
    else
      match List.find_opt (fun ((n, d), _, _) -> n = 1000 && d <> None) rows with
      | None -> [ (false, "1000-node light-load row missing from full run") ]
      | Some (_, (_, sppc, ss, _, _, _, _), (_, rppc, rs, _, _, _)) ->
          let ppc_ratio = if sppc > 0.0 then rppc /. sppc else Float.infinity in
          let time_ratio = if ss > 0.0 then rs /. ss else Float.infinity in
          Printf.printf
            "  n=1000 light load: pivots-per-column ratio %.2fx, resolve-time ratio %.2fx\n%!"
            ppc_ratio time_ratio;
          [
            ( ppc_ratio >= 3.0,
              Printf.sprintf "pivots-per-column only %.2fx better than reference (< 3x)"
                ppc_ratio );
            ( time_ratio >= 2.0,
              Printf.sprintf "resolve wall time only %.2fx better than reference (< 2x)"
                time_ratio );
          ]
  in
  failures
    (( wire_identical,
       "stabilised arm is not wire-identical to the reference on a certified row (or no row \
        certified)" )
    :: light_row)

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
let whatif_bench ~seed ~quick ~out =
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
  failures
    [
      (in_range_exact, "an in-range prediction is not wire-identical to its re-solve");
      ( quick || speedup >= 5.0,
        Printf.sprintf "prediction only %.1fx faster than re-solving (< 5x)" speedup );
    ]

(* --- driver: one suite per run ------------------------------------- *)

type suite = {
  name : string;
  doc : string;
  out : string;  (* default artifact path *)
  run : seed:int64 -> quick:bool -> out:string -> string list;  (* failed gates *)
}

(* Perf-only counter baseline paths. *)
let write_baseline = ref None
let check_baseline = ref None

let suites =
  [
    {
      name = "figures";
      doc = "(default) every paper figure and table, and the telemetry baseline";
      out = "BENCH_telemetry.json";
      run = figures;
    };
    {
      name = "perf";
      doc = "naive SINR model vs conflict kernel on the warm master";
      out = "BENCH_perf.json";
      run =
        (fun ~seed ~quick ~out ->
          perf ~seed ~quick ~out ~baseline_out:!write_baseline ~check:!check_baseline);
    };
    {
      name = "mac";
      doc = "event-driven MAC fast path vs the reference loop, timed gates";
      out = "BENCH_mac.json";
      run = mac_bench;
    };
    {
      name = "serve";
      doc = "admission server, warm session vs cold reference";
      out = "BENCH_server.json";
      run = serve_bench;
    };
    {
      name = "scale";
      doc = "Eq. 6 bracket at 30-1000 nodes under heuristic pricing";
      out = "BENCH_scale.json";
      run = scale_bench;
    };
    {
      name = "soak";
      doc = "dynamic scenario, incremental vs rebuilt kernels";
      out = "BENCH_soak.json";
      run = soak_bench;
    };
    {
      name = "master";
      doc = "stabilised Devex master vs the Dantzig reference";
      out = "BENCH_master.json";
      run = master_bench;
    };
    {
      name = "whatif";
      doc = "basis-reuse predictions vs certified re-solves";
      out = "BENCH_whatif.json";
      run = whatif_bench;
    };
  ]

let () =
  let suite = ref None and seed = ref 30L and quick = ref false and out = ref None in
  let path r = Arg.String (fun s -> r := Some s) in
  let specs =
    [
      ("--quick", Arg.Set quick, " reduced workload; timed fields blanked, except in mac");
      ( "--seed",
        Arg.String
          (fun s ->
            match Int64.of_string_opt s with
            | Some v -> seed := v
            | None -> raise (Arg.Bad (Printf.sprintf "--seed: %S is not an integer" s))),
        "S experiment seed (default 30)" );
      ("--out", path out, "FILE artifact path (default: the suite's, listed above)");
      ( "--write-perf-baseline",
        path write_baseline,
        "FILE perf: dump kernel-arm counters as a flat baseline" );
      ( "--check-perf",
        path check_baseline,
        "FILE perf: fail if a kernel-arm counter exceeds the baseline by >10%" );
    ]
  in
  let usage =
    Printf.sprintf "bench [%s] [--quick] [--seed S] [--out FILE]\n\n%s\n"
      (String.concat "|" (List.map (fun s -> s.name) suites))
      (String.concat "\n"
         (List.map (fun s -> Printf.sprintf "  %-8s %s; writes %s" s.name s.doc s.out) suites))
  in
  Arg.parse specs
    (fun name ->
      match (List.find_opt (fun s -> s.name = name) suites, !suite) with
      | Some s, None -> suite := Some s
      | Some _, Some _ -> raise (Arg.Bad "one suite per run")
      | None, _ -> raise (Arg.Bad (Printf.sprintf "unknown suite %S" name)))
    usage;
  let s = Option.value !suite ~default:(List.hd suites) in
  if s.name <> "perf" && (!write_baseline <> None || !check_baseline <> None) then begin
    prerr_endline "bench: --write-perf-baseline and --check-perf apply to the perf suite only";
    exit 2
  end;
  let failed = s.run ~seed:!seed ~quick:!quick ~out:(Option.value !out ~default:s.out) in
  List.iter (Printf.eprintf "%s FAIL: %s\n" (String.uppercase_ascii s.name)) failed;
  if failed <> [] then exit 1
