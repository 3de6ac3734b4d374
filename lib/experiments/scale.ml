module Model = Wsn_conflict.Model
module Pricing_greedy = Wsn_conflict.Pricing_greedy
module Topology = Wsn_net.Topology
module Column_gen = Wsn_availbw.Column_gen
module Bounds = Wsn_availbw.Bounds
module Flow = Wsn_availbw.Flow
module Router = Wsn_routing.Router
module Metrics = Wsn_routing.Metrics
module Scenarios = Wsn_workload.Scenarios

type row = {
  n_nodes : int;
  n_links : int;
  n_flows : int;
  universe : int;
  n_shards : int;
  lower_mbps : float;
  upper_mbps : float;
  gap_mbps : float;
  certified : bool;
  columns : int;
  iterations : int;
  seconds : float;
}

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let query ?max_iterations ?(pricer = Column_gen.Auto) ?n_flows ?demand_mbps ~n_nodes ~seed
    () =
  let sc = Scenarios.Scale_scenario.generate ?n_flows ?demand_mbps ~n_nodes ~seed () in
  let topo = sc.Scenarios.Scale_scenario.topology in
  let model = sc.Scenarios.Scale_scenario.model in
  (* Transmission-delay routing prefers fast links; hop-count routing
     favours the longest (slowest) links and routinely over-commits
     the background's TDMA budget at density. *)
  let idleness (_ : int) = 1.0 in
  let routed =
    List.filter_map
      (fun (s, d, dem) ->
        Option.map
          (fun p -> (p, dem))
          (Router.find_path topo ~metric:Metrics.E2e_transmission_delay ~idleness
             ~source:s ~target:d))
      sc.Scenarios.Scale_scenario.flows
  in
  match routed with
  | [] -> failwith "Scale.query: no flow routable (topology should be connected)"
  | (path, _) :: rest ->
    (* First drawn pair is the flow under admission; the rest load the
       network as background. *)
    let background = List.map (fun (p, dem) -> Flow.make ~path:p ~demand_mbps:dem) rest in
    let universe = List.sort_uniq compare (Flow.union_links background @ path) in
    let n_shards = List.length (Pricing_greedy.shards model universe) in
    let result, seconds =
      time (fun () ->
          Column_gen.available ?max_iterations ~pricer model ~background ~path)
    in
    let upper_mbps = Bounds.clique_upper model ~background ~path in
    let lower_mbps, certified, columns, iterations =
      match result with
      | Some r ->
        ( r.Column_gen.bandwidth_mbps,
          r.Column_gen.certified,
          r.Column_gen.columns_generated,
          r.Column_gen.iterations )
      | None -> (0.0, true, 0, 0)  (* background infeasible: nothing is admittable *)
    in
    {
      n_nodes;
      n_links = Topology.n_links topo;
      n_flows = List.length routed;
      universe = List.length universe;
      n_shards;
      lower_mbps;
      upper_mbps;
      gap_mbps = Float.max 0.0 (upper_mbps -. lower_mbps);
      certified;
      columns;
      iterations;
      seconds;
    }

let run ?(ns = [ 30; 100; 300; 1000 ]) ?max_iterations ?pricer ?n_flows ?demand_mbps ~seed
    () =
  List.map
    (fun n_nodes -> query ?max_iterations ?pricer ?n_flows ?demand_mbps ~n_nodes ~seed ())
    ns

let print ?ns ?max_iterations ?pricer ~seed () =
  Printf.printf
    "# E16: Eq. 6 availability bracket at scale (heuristic pricing tier)\n";
  Printf.printf "%7s %7s %6s %9s %7s %10s %10s %9s %10s %6s %8s\n" "nodes" "links"
    "flows" "universe" "shards" "lower" "upper" "gap" "certified" "cols" "secs";
  List.iter
    (fun r ->
      Printf.printf "%7d %7d %6d %9d %7d %10.3f %10.3f %9.3f %10b %6d %8.2f\n" r.n_nodes
        r.n_links r.n_flows r.universe r.n_shards r.lower_mbps r.upper_mbps r.gap_mbps
        r.certified r.columns r.seconds)
    (run ?ns ?max_iterations ?pricer ~seed ())
