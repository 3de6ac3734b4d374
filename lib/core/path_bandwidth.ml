module Model = Wsn_conflict.Model
module Independent = Wsn_conflict.Independent
module Schedule = Wsn_sched.Schedule
module Problem = Wsn_lp.Problem
module Types = Wsn_lp.Types
module Telemetry = Wsn_telemetry.Registry

(* Shared with Column_gen: both build Eq. 6 masters over independent-set
   columns, so the pool size and re-solve counts land in one metric. *)
let m_columns = Telemetry.counter "colgen.columns"

let m_lp_resolves = Telemetry.counter "colgen.lp_resolves"

type result = {
  bandwidth_mbps : float;
  schedule : Schedule.t;
  n_columns : int;
}

let validate_path path =
  if path = [] then invalid_arg "Path_bandwidth: empty path";
  if List.length (List.sort_uniq compare path) <> List.length path then
    invalid_arg "Path_bandwidth: repeated link in path"

let schedule_of_columns columns shares =
  Schedule.make
    (List.map2
       (fun (c : Independent.column) share ->
         (* The simplex answers with float noise; genuine negatives are a
            solver bug, noise is clamped away. *)
         if share < -1e-6 then failwith "Path_bandwidth: negative time share from LP";
         { Schedule.links = c.links; rates = c.rates; share = Float.max share 0.0 })
       columns shares)

(* Shared LP body: columns over [universe], coverage rows per link.
   [new_path] adds the f variable; when absent the objective minimises
   total airtime instead (background scheduling). *)
let solve ?max_sets model ~background ~new_path =
  Wsn_telemetry.Span.with_span "pathbw.solve" @@ fun () ->
  let universe =
    List.sort_uniq compare
      (Flow.union_links background @ (match new_path with Some p -> p | None -> []))
  in
  match universe with
  | [] -> invalid_arg "Path_bandwidth: nothing to schedule"
  | _ ->
    let columns = Independent.columns ?max_sets model ~universe in
    Telemetry.add m_columns (List.length columns);
    Telemetry.incr m_lp_resolves;
    let index = Hashtbl.create 16 in
    List.iteri (fun i l -> Hashtbl.replace index l i) universe;
    let objective = match new_path with Some _ -> Types.Maximize | None -> Types.Minimize in
    let lp = Problem.create objective in
    let airtime_cost = match new_path with Some _ -> 0.0 | None -> 1.0 in
    let lambda =
      List.map (fun (_ : Independent.column) -> Problem.add_var ~obj:airtime_cost lp) columns
    in
    let f = Option.map (fun _ -> Problem.add_var ~obj:1.0 lp) new_path in
    Problem.add_constraint lp (List.map (fun v -> (v, 1.0)) lambda) Types.Le 1.0;
    List.iter
      (fun link ->
        let i = Hashtbl.find index link in
        let supply =
          List.map2 (fun v (c : Independent.column) -> (v, c.mbps.(i))) lambda columns
        in
        let demand_terms =
          match (f, new_path) with
          | Some fv, Some p when List.mem link p -> [ (fv, -1.0) ]
          | _ -> []
        in
        let load = Flow.load_on background link in
        Problem.add_constraint lp (supply @ demand_terms) Types.Ge load)
      universe;
    (match Problem.solve lp with
     | Problem.Infeasible -> None
     | Problem.Unbounded -> failwith "Path_bandwidth: LP unbounded (model bug)"
     | Problem.Solution s ->
       let shares = List.map (fun v -> s.Problem.values v) lambda in
       let bandwidth = match f with Some fv -> s.Problem.values fv | None -> 0.0 in
       Some (bandwidth, schedule_of_columns columns shares, List.length columns))

let result_of (bw, schedule, n) = { bandwidth_mbps = bw; schedule; n_columns = n }

let available model ~background ~path =
  validate_path path;
  Option.map result_of (solve model ~background ~new_path:(Some path))

let path_capacity ?max_sets model ~path =
  validate_path path;
  match solve ?max_sets model ~background:[] ~new_path:(Some path) with
  | Some r -> result_of r
  | None -> failwith "Path_bandwidth.path_capacity: empty background cannot be infeasible"

let background_schedule model flows =
  match flows with
  | [] -> Some Schedule.empty
  | _ ->
    Option.map (fun (_, schedule, _) -> schedule) (solve model ~background:flows ~new_path:None)

let feasible model flows = background_schedule model flows <> None

type multi_result = {
  scale : float;
  multi_schedule : Schedule.t;
}

let available_multi model ~background ~requests =
  if requests = [] then invalid_arg "Path_bandwidth.available_multi: no requests";
  List.iter
    (fun r ->
      if r.Flow.demand_mbps <= 0.0 then
        invalid_arg "Path_bandwidth.available_multi: request with non-positive demand")
    requests;
  let universe =
    List.sort_uniq compare (Flow.union_links background @ Flow.union_links requests)
  in
  let columns = Independent.columns model ~universe in
  Telemetry.add m_columns (List.length columns);
  Telemetry.incr m_lp_resolves;
  let index = Hashtbl.create 16 in
  List.iteri (fun i l -> Hashtbl.replace index l i) universe;
  let lp = Problem.create Types.Maximize in
  let alpha = Problem.add_var ~obj:1.0 lp in
  let lambda = List.map (fun (_ : Independent.column) -> Problem.add_var lp) columns in
  Problem.add_constraint lp (List.map (fun v -> (v, 1.0)) lambda) Types.Le 1.0;
  List.iter
    (fun link ->
      let i = Hashtbl.find index link in
      let supply = List.map2 (fun v (c : Independent.column) -> (v, c.mbps.(i))) lambda columns in
      let requested = Flow.load_on requests link in
      let terms = if requested > 0.0 then (alpha, -.requested) :: supply else supply in
      Problem.add_constraint lp terms Types.Ge (Flow.load_on background link))
    universe;
  match Problem.solve lp with
  | Problem.Infeasible -> None
  | Problem.Unbounded -> failwith "Path_bandwidth.available_multi: LP unbounded (model bug)"
  | Problem.Solution s ->
    let shares = List.map (fun v -> s.Problem.values v) lambda in
    Some { scale = s.Problem.values alpha; multi_schedule = schedule_of_columns columns shares }
