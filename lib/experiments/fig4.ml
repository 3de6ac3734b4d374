module RS = Wsn_workload.Scenarios.Random_scenario
module Admission = Wsn_routing.Admission
module Metrics = Wsn_routing.Metrics
module Router = Wsn_routing.Router
module Topology = Wsn_net.Topology
module Idleness = Wsn_sched.Idleness
module Flow = Wsn_availbw.Flow
module Path_bandwidth = Wsn_availbw.Path_bandwidth
module Estimators = Wsn_availbw.Estimators
module Clique = Wsn_conflict.Clique

type row = {
  flow_index : int;
  truth_mbps : float;
  estimates : Estimators.all;
}

type t = {
  seed : int64;
  rows : row list;
}

let default_seed = 30L

let observe topo schedule path =
  Array.of_list
    (List.map
       (fun l ->
         {
           Estimators.rate_mbps = Topology.alone_mbps topo l;
           idleness = Idleness.link_idleness topo schedule l;
         })
       path)

let compute ?(seed = default_seed) ?(metric = Metrics.Average_e2e_delay) () =
  let scenario = RS.generate ~seed () in
  let topo = scenario.RS.topology in
  let model = scenario.RS.model in
  let run = Admission.run topo model ~metric ~flows:scenario.RS.flows in
  let rows = ref [] in
  let background = ref [] in
  List.iter
    (fun (step : Admission.step) ->
      (match step.Admission.path with
       | None -> ()
       | Some path ->
         let schedule =
           match Path_bandwidth.background_schedule model !background with
           | Some s -> s
           | None -> assert false
         in
         let obs = observe topo schedule path in
         let cliques =
           Clique.local_cliques model ~path_links:path ~rate_of:(Topology.alone_rate topo)
         in
         let estimates = Estimators.all ~cliques obs in
         rows :=
           { flow_index = step.Admission.index; truth_mbps = step.Admission.available_mbps; estimates }
           :: !rows);
      if step.Admission.admitted then
        match step.Admission.path with
        | Some p ->
          background := Flow.make ~path:p ~demand_mbps:step.Admission.demand_mbps :: !background
        | None -> ())
    run.Admission.steps;
  { seed; rows = List.rev !rows }

let errors rows =
  Estimators.mean_abs_errors (List.map (fun r -> (r.estimates, r.truth_mbps)) rows)

let mean_abs_error t = errors t.rows

let sweep_seeds ~seeds = errors (List.concat_map (fun seed -> (compute ~seed ()).rows) seeds)

let print ?seed () =
  let t = compute ?seed () in
  Printf.printf "# E4 (Fig. 4): estimated vs true available bandwidth (average-e2eD paths)\n";
  Printf.printf "%5s %8s %15s %12s %10s %17s %15s\n" "flow" "truth" "bottleneck(10)" "clique(11)"
    "min(12)" "conservative(13)" "expected-T(15)";
  List.iter
    (fun r ->
      match Estimators.values r.estimates with
      | [ b; c; m; cons; e ] ->
        Printf.printf "%5d %8.2f %15.2f %12.2f %10.2f %17.2f %15.2f\n" r.flow_index r.truth_mbps b
          c m cons e
      | _ -> assert false)
    t.rows;
  Printf.printf "mean |error| per estimator:\n";
  List.iter (fun (name, e) -> Printf.printf "  %-18s %8.3f\n" name e) (mean_abs_error t)
