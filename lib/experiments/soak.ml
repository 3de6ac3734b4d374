module Scenario = Wsn_dynamics.Scenario
module Dsoak = Wsn_dynamics.Soak
module Column_gen = Wsn_availbw.Column_gen
module Estimators = Wsn_availbw.Estimators

let default_seed = 30L

let compute ?(seed = default_seed) ?epochs ?n_nodes ?horizon_h ?window_us ?pricer
    ?(rebuild = false) () =
  let d = Scenario.default in
  let params =
    {
      d with
      Scenario.epochs = Option.value epochs ~default:d.Scenario.epochs;
      n_nodes = Option.value n_nodes ~default:d.Scenario.n_nodes;
      horizon_h = Option.value horizon_h ~default:d.Scenario.horizon_h;
    }
  in
  let sc = Scenario.generate ~params ~seed () in
  let mode = if rebuild then Dsoak.Rebuild else Dsoak.Incremental in
  Dsoak.run ~mode ?pricer ?window_us sc

let kernel_op_label = function
  | Dsoak.Reused -> "reuse"
  | Dsoak.Rebuilt -> "build"
  | Dsoak.Patched -> "patch"

let print ?seed ?epochs ?n_nodes ?horizon_h ?window_us ?pricer ?rebuild () =
  let t = compute ?seed ?epochs ?n_nodes ?horizon_h ?window_us ?pricer ?rebuild () in
  let sc = t.Dsoak.scenario in
  Printf.printf
    "# E17: dynamic soak — online estimators vs warm-LP truth (probe %d -> %d, %d epochs / %.1f h)\n"
    sc.Scenario.probe_source sc.Scenario.probe_target
    sc.Scenario.params.Scenario.epochs sc.Scenario.params.Scenario.horizon_h;
  Printf.printf "%5s %6s %6s %5s %6s %5s %6s %6s %8s %8s %8s %8s %8s %8s %8s\n"
    "epoch" "t_h" "scale" "nodes" "flows" "moved" "kernel" "track" "truth"
    "upper" "bneck" "clique" "min" "conserv" "expT";
  List.iter
    (fun (r : Dsoak.epoch_row) ->
      let est =
        match r.Dsoak.estimates with
        | Some e -> Estimators.values e
        | None -> List.map (fun _ -> nan) Estimators.names
      in
      match est with
      | [ b; c; m; cons; e ] ->
          Printf.printf
            "%5d %6.2f %6.3f %5d %6d %5d %6s %6b %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n"
            r.Dsoak.index r.Dsoak.t_h r.Dsoak.demand_scale r.Dsoak.n_active
            r.Dsoak.live_flows r.Dsoak.n_moved
            (kernel_op_label r.Dsoak.kernel_op)
            r.Dsoak.tracked r.Dsoak.truth_mbps r.Dsoak.upper_mbps b c m cons e
      | _ -> assert false)
    t.Dsoak.rows;
  Printf.printf "mean |tracking error| per estimator:\n";
  List.iter
    (fun (name, e) -> Printf.printf "  %-18s %8.3f\n" name e)
    (Dsoak.tracking_errors t);
  Printf.printf "mean |staleness error| (one epoch old) per estimator:\n";
  List.iter
    (fun (name, e) -> Printf.printf "  %-18s %8.3f\n" name e)
    (Dsoak.staleness_errors t)
