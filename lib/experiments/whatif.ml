module Topology = Wsn_net.Topology
module Column_gen = Wsn_availbw.Column_gen
module Flow = Wsn_availbw.Flow
module Router = Wsn_routing.Router
module Metrics = Wsn_routing.Metrics
module Scenarios = Wsn_workload.Scenarios
module Proto = Wsn_admission.Protocol

type row = {
  factor : float;
  n_queries : int;
  in_range : int;
  repivoted : int;
  wire_exact : int;
  in_range_wire_exact : int;
  max_err_mbps : float;
  predict_s : float;
  resolve_s : float;
}

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* One scenario instance shared by every factor: the probed path, its
   background, and the dual view frozen at the certified optimum. *)
type instance = {
  i_model : Wsn_conflict.Model.t;
  i_path : int list;
  i_background : Flow.t list;
  i_sens : Column_gen.sensitivity;
  i_base_mbps : float;
}

let instance ?n_flows ?demand_mbps ~n_nodes ~seed () =
  let sc = Scenarios.Scale_scenario.generate ?n_flows ?demand_mbps ~n_nodes ~seed () in
  let topo = sc.Scenarios.Scale_scenario.topology in
  let model = sc.Scenarios.Scale_scenario.model in
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
  | [] -> failwith "Whatif.instance: no flow routable (topology should be connected)"
  | (path, _) :: rest -> (
    let background = List.map (fun (p, dem) -> Flow.make ~path:p ~demand_mbps:dem) rest in
    match Column_gen.available_sens ~pricer:Column_gen.Exact model ~background ~path with
    | Some r, Some s ->
      {
        i_model = model;
        i_path = path;
        i_background = background;
        i_sens = s;
        i_base_mbps = r.Column_gen.bandwidth_mbps;
      }
    | _ ->
      failwith "Whatif.instance: background infeasible (pick a lighter scenario)")

let scaled inst k factor =
  List.mapi
    (fun i (f : Flow.t) ->
      if i <> k then f else Flow.make ~path:f.path ~demand_mbps:(f.demand_mbps *. factor))
    inst.i_background

(* Every background flow of the instance probed at one scaling factor:
   the basis-reuse prediction against a fresh certified re-solve. *)
let probe inst factor =
  let n_queries = List.length inst.i_background in
  let in_range = ref 0
  and repivoted = ref 0
  and wire_exact = ref 0
  and in_range_wire = ref 0
  and max_err = ref 0.0
  and predict_s = ref 0.0
  and resolve_s = ref 0.0 in
  for k = 0 to n_queries - 1 do
    let lo, hi = Column_gen.scale_ranging inst.i_sens k in
    let inside = factor >= lo -. 1e-9 && factor <= hi +. 1e-9 in
    if inside then incr in_range;
    let w, tp = time (fun () -> Column_gen.whatif_scale inst.i_sens k ~factor) in
    predict_s := !predict_s +. tp;
    if w.Column_gen.w_repivoted then incr repivoted;
    let fresh, tr =
      time (fun () ->
          Column_gen.available ~pricer:Column_gen.Exact inst.i_model ~background:(scaled inst k factor) ~path:inst.i_path)
    in
    resolve_s := !resolve_s +. tr;
    let exact_mbps, exact_feasible =
      match fresh with
      | Some r -> (r.Column_gen.bandwidth_mbps, true)
      | None -> (0.0, false)
    in
    max_err := Float.max !max_err (Float.abs (w.Column_gen.w_mbps -. exact_mbps));
    let same =
      Proto.mbps w.Column_gen.w_mbps = Proto.mbps exact_mbps
      && w.Column_gen.w_feasible = exact_feasible
    in
    if same then incr wire_exact;
    if same && inside then incr in_range_wire
  done;
  {
    factor;
    n_queries;
    in_range = !in_range;
    repivoted = !repivoted;
    wire_exact = !wire_exact;
    in_range_wire_exact = !in_range_wire;
    max_err_mbps = !max_err;
    predict_s = !predict_s;
    resolve_s = !resolve_s;
  }

let default_factors = [ 0.0; 0.5; 0.9; 1.1; 1.5; 2.0 ]

let run ?(factors = default_factors) ?n_flows ?demand_mbps ?(n_nodes = 30) ~seed () =
  let inst = instance ?n_flows ?demand_mbps ~n_nodes ~seed () in
  List.map (probe inst) factors

let all_in_range_exact rows =
  List.for_all (fun r -> r.in_range_wire_exact = r.in_range) rows

let print ?factors ?n_flows ?demand_mbps ?n_nodes ~seed () =
  let rows = run ?factors ?n_flows ?demand_mbps ?n_nodes ~seed () in
  Printf.printf "# E18: basis-reuse what-if accuracy and speed (demand scaling)\n";
  Printf.printf "%7s %8s %9s %10s %11s %13s %12s %10s %10s\n" "factor" "queries"
    "in_range" "repivoted" "wire_exact" "inrange_wire" "max_err" "predict_s" "resolve_s";
  List.iter
    (fun r ->
      Printf.printf "%7.3f %8d %9d %10d %11d %13d %12.6f %10.4f %10.4f\n" r.factor
        r.n_queries r.in_range r.repivoted r.wire_exact r.in_range_wire_exact
        r.max_err_mbps r.predict_s r.resolve_s)
    rows;
  rows
