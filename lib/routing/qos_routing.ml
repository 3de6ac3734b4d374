module Topology = Wsn_net.Topology
module Model = Wsn_conflict.Model
module Clique = Wsn_conflict.Clique
module Schedule = Wsn_sched.Schedule
module Idleness = Wsn_sched.Idleness
module Flow = Wsn_availbw.Flow
module Path_bandwidth = Wsn_availbw.Path_bandwidth
module Estimators = Wsn_availbw.Estimators
module Telemetry = Wsn_telemetry.Registry

let m_candidates_scored = Telemetry.counter "routing.candidates_scored"

type estimator =
  | Bottleneck
  | Clique_constraint
  | Min_clique_bottleneck
  | Conservative
  | Expected_clique_time

type strategy =
  | Estimator_select of { k : int; estimator : estimator }
  | Oracle_select of { k : int }

let estimator_name = function
  | Bottleneck -> "bottleneck(10)"
  | Clique_constraint -> "clique(11)"
  | Min_clique_bottleneck -> "min(12)"
  | Conservative -> "conservative(13)"
  | Expected_clique_time -> "expected-T(15)"

let strategy_name = function
  | Estimator_select { k; estimator } -> Printf.sprintf "select-%s-k%d" (estimator_name estimator) k
  | Oracle_select { k } -> Printf.sprintf "oracle-k%d" k

let estimate_path topo model ~schedule estimator path =
  if path = [] then invalid_arg "Qos_routing.estimate_path: empty path";
  let obs =
    Array.of_list
      (List.map
         (fun l ->
           {
             Estimators.rate_mbps = Topology.alone_mbps topo l;
             idleness = Idleness.link_idleness topo schedule l;
           })
         path)
  in
  let cliques = Clique.local_cliques model ~path_links:path ~rate_of:(Topology.alone_rate topo) in
  match estimator with
  | Bottleneck -> Estimators.bottleneck obs
  | Clique_constraint -> Estimators.clique_constraint ~cliques obs
  | Min_clique_bottleneck -> Estimators.min_clique_bottleneck ~cliques obs
  | Conservative -> Estimators.conservative ~cliques obs
  | Expected_clique_time -> Estimators.expected_clique_time ~cliques obs

let find_path topo model ~background ~strategy ~source ~target =
  Wsn_telemetry.Span.with_span "routing.find_path" @@ fun () ->
  let k = match strategy with Estimator_select { k; _ } | Oracle_select { k } -> k in
  (* Candidates under e2eTD: fast links first, idleness-independent. *)
  let candidates =
    Router.candidate_paths topo ~metric:Metrics.E2e_transmission_delay ~idleness:(fun _ -> 1.0)
      ~source ~target ~k
  in
  match candidates with
  | [] -> None
  | _ ->
    let score =
      match strategy with
      | Estimator_select { estimator; _ } ->
        let schedule =
          match Path_bandwidth.background_schedule model background with
          | Some s -> s
          | None -> Schedule.empty (* infeasible background: estimate over a silent channel *)
        in
        fun path -> estimate_path topo model ~schedule estimator path
      | Oracle_select _ -> (
        fun path ->
          match Path_bandwidth.available model ~background ~path with
          | Some r -> r.Path_bandwidth.bandwidth_mbps
          | None -> 0.0)
    in
    let best =
      List.fold_left
        (fun acc path ->
          Telemetry.incr m_candidates_scored;
          let s = score path in
          match acc with
          | Some (_, best_s, best_len)
            when best_s > s +. 1e-9
                 || (Float.abs (best_s -. s) <= 1e-9 && best_len <= List.length path) ->
            acc
          | _ -> Some (path, s, List.length path))
        None candidates
    in
    Option.map (fun (path, _, _) -> path) best
