module Topology = Wsn_net.Topology
module Model = Wsn_conflict.Model
module Schedule = Wsn_sched.Schedule
module Idleness = Wsn_sched.Idleness
module Flow = Wsn_availbw.Flow
module Path_bandwidth = Wsn_availbw.Path_bandwidth
module Telemetry = Wsn_telemetry.Registry

let m_admitted = Telemetry.counter "routing.admitted"

let m_rejected = Telemetry.counter "routing.rejected"

type step = {
  index : int;
  source : int;
  target : int;
  demand_mbps : float;
  path : int list option;
  available_mbps : float;
  admitted : bool;
}

type run = {
  label : string;
  steps : step list;
  first_failure : int option;
}

let admission_eps = 1e-6

(* [router] is the route chooser: it sees the admitted background and
   its efficient schedule (for idleness measurements) and proposes a
   link path. *)
let run_with ?(stop_on_failure = true) ~label ~router model ~flows =
  let rec go index background steps = function
    | [] -> (List.rev steps, None)
    | (source, target, demand_mbps) :: rest ->
      let schedule =
        match Path_bandwidth.background_schedule model background with
        | Some s -> s
        | None ->
          (* Admission only ever admits feasible sets. *)
          assert false
      in
      let path = router ~background ~schedule ~source ~target in
      let available_mbps =
        match path with
        | None -> 0.0
        | Some p -> (
          match Path_bandwidth.available model ~background ~path:p with
          | Some r -> r.Path_bandwidth.bandwidth_mbps
          | None -> 0.0)
      in
      let admitted = available_mbps >= demand_mbps -. admission_eps in
      Telemetry.incr (if admitted then m_admitted else m_rejected);
      let step = { index; source; target; demand_mbps; path; available_mbps; admitted } in
      if admitted then begin
        let flow =
          match path with
          | Some p -> Flow.make ~path:p ~demand_mbps
          | None -> assert false (* admitted implies a route *)
        in
        go (index + 1) (flow :: background) (step :: steps) rest
      end
      else if stop_on_failure then (List.rev (step :: steps), Some index)
      else go (index + 1) background (step :: steps) rest
  in
  let steps, first_failure = go 1 [] [] flows in
  let first_failure =
    match first_failure with
    | Some _ as f -> f
    | None -> (
      match List.find_opt (fun s -> not s.admitted) steps with
      | Some s -> Some s.index
      | None -> None)
  in
  { label; steps; first_failure }

let run ?stop_on_failure topo model ~metric ~flows =
  let router ~background ~schedule ~source ~target =
    ignore background;
    let idleness = Idleness.table_link_idleness topo (Idleness.node_table topo schedule) in
    Router.find_path topo ~metric ~idleness ~source ~target
  in
  run_with ?stop_on_failure ~label:(Metrics.name metric) ~router model ~flows

let run_strategy ?stop_on_failure topo model ~strategy ~flows =
  let router ~background ~schedule ~source ~target =
    ignore schedule;
    Qos_routing.find_path topo model ~background ~strategy ~source ~target
  in
  run_with ?stop_on_failure ~label:(Qos_routing.strategy_name strategy) ~router model ~flows

let admitted_flows run =
  List.filter_map
    (fun s ->
      if s.admitted then
        match s.path with
        | Some p -> Some (Flow.make ~path:p ~demand_mbps:s.demand_mbps)
        | None -> None
      else None)
    run.steps
