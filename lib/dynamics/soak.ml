module Point = Wsn_net.Point
module Topology = Wsn_net.Topology
module Model = Wsn_conflict.Model
module Clique = Wsn_conflict.Clique
module Flow = Wsn_availbw.Flow
module Column_gen = Wsn_availbw.Column_gen
module Bounds = Wsn_availbw.Bounds
module Estimators = Wsn_availbw.Estimators
module Router = Wsn_routing.Router
module Metrics = Wsn_routing.Metrics
module Sim = Wsn_mac.Sim
module Pcg32 = Wsn_prng.Pcg32
module Streams = Wsn_prng.Streams
module Registry = Wsn_telemetry.Registry

type prepare_mode = Incremental | Rebuild

type kernel_op = Reused | Rebuilt | Patched

type epoch_row = {
  index : int;
  t_h : float;
  demand_scale : float;
  n_active : int;
  n_links : int;
  n_moved : int;
  kernel_op : kernel_op;
  kernel_digest : string;
  live_flows : int;
  routed_flows : int;
  tracked : bool;
  truth_mbps : float;
  certified : bool;
  upper_mbps : float;
  estimates : Estimators.all option;
  columns_generated : int;
  columns_pooled : int;
  prepare_s : float;
  lp_s : float;
  mac_s : float;
}

type t = {
  scenario : Scenario.t;
  mode : prepare_mode;
  window_us : int;
  rows : epoch_row list;
}

let c_epochs = Registry.counter "dyn.epochs"
let c_events = Registry.counter "dyn.events"
let c_moved = Registry.counter "dyn.moved_nodes"
let c_patch = Registry.counter "dyn.kernel_patches"
let c_rebuild = Registry.counter "dyn.kernel_rebuilds"
let c_reuse = Registry.counter "dyn.kernel_reuses"
let c_untracked = Registry.counter "dyn.untracked_epochs"
let sp_prepare = Registry.span "soak.prepare"
let sp_lp = Registry.span "soak.lp"
let sp_mac = Registry.span "soak.mac"

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Local interference cliques of [path] as index windows into the path
   (same derivation as the Fig. 4 experiment). *)
let local_clique_indices model topo path =
  let rate_of l = Topology.alone_rate topo l in
  let cliques = Clique.local_cliques model ~path_links:path ~rate_of in
  let index_of l =
    let rec find i = function
      | [] -> invalid_arg "Soak: clique link not on path"
      | l' :: rest -> if l' = l then i else find (i + 1) rest
    in
    find 0 path
  in
  List.map (List.map index_of) cliques

let remove_nth k l =
  let rec go k acc = function
    | [] -> invalid_arg "Soak: flow departure index out of range"
    | x :: rest ->
        if k = 0 then List.rev_append acc rest else go (k - 1) (x :: acc) rest
  in
  go k [] l

(* 64 random bits for a per-epoch MAC seed. *)
let draw_seed g =
  let hi = Int64.of_int32 (Pcg32.next_int32 g) in
  let lo = Int64.logand (Int64.of_int32 (Pcg32.next_int32 g)) 0xFFFFFFFFL in
  Int64.logxor (Int64.shift_left hi 32) lo

type live_flow = { source : int; target : int; demand_mbps : float }

let run ?(mode = Incremental) ?(pricer = Column_gen.Auto) ?max_iterations ?lp_pricing
    ?stabilize ?(window_us = 1_000_000) ?(metric = Metrics.E2e_transmission_delay)
    ?(track = true) (sc : Scenario.t) =
  let n = sc.Scenario.params.Scenario.n_nodes in
  let phy = Topology.phy sc.Scenario.base in
  let gmac = Streams.stream (Streams.create sc.Scenario.seed) "soak-mac" in
  let positions = Array.init n (Topology.position sc.Scenario.base) in
  let active = Array.make n true in
  let flows = ref [] in
  (* oldest first *)
  let topo = ref sc.Scenario.base in
  let prepared = ref None in
  let model = ref None in
  let pool = ref None in
  let idleness_one (_ : int) = 1.0 in
  let rows =
    List.map
      (fun (ep : Scenario.epoch) ->
        Registry.incr c_epochs;
        let prev_positions = Array.copy positions in
        (* Drift first, then this epoch's events (the generator's
           convention — a leave in this epoch overrides the drift). *)
        List.iter (fun (i, p) -> positions.(i) <- p) ep.Scenario.moves;
        List.iter
          (fun ev ->
            Registry.incr c_events;
            match ev with
            | Scenario.Flow_arrival { source; target; demand_mbps } ->
                flows := !flows @ [ { source; target; demand_mbps } ]
            | Scenario.Flow_departure k -> flows := remove_nth k !flows
            | Scenario.Node_leave u ->
                active.(u) <- false;
                positions.(u) <- Scenario.park_position u
            | Scenario.Node_join { node; pos } ->
                active.(node) <- true;
                positions.(node) <- pos)
          ep.Scenario.events;
        let moved =
          List.filter
            (fun i -> positions.(i) <> prev_positions.(i))
            (List.init n Fun.id)
        in
        let n_moved = List.length moved in
        Registry.add c_moved n_moved;
        (* Kernel maintenance: reuse when nothing moved (the simulator
           requires physical topology equality, so the Topology value
           is reused too); otherwise patch or rebuild per [mode]. *)
        let kernel_op, prepare_s =
          match !prepared with
          | None ->
              let nt =
                if moved = [] then sc.Scenario.base
                else Topology.create ~phy (Array.copy positions)
              in
              let pk, s = time (fun () -> Sim.prepare nt) in
              topo := nt;
              prepared := Some pk;
              model := Some (Model.physical nt);
              pool := Some (Column_gen.create_pool ());
              Registry.incr c_rebuild;
              (Rebuilt, s)
          | Some pk ->
              if moved = [] then begin
                Registry.incr c_reuse;
                (Reused, 0.0)
              end
              else begin
                let nt = Topology.create ~phy (Array.copy positions) in
                let pk', s =
                  time (fun () ->
                      match mode with
                      | Incremental -> Sim.apply_delta pk nt ~moved
                      | Rebuild -> Sim.prepare nt)
                in
                topo := nt;
                prepared := Some pk';
                model := Some (Model.physical nt);
                pool := Some (Column_gen.create_pool ());
                (match mode with
                | Incremental ->
                    Registry.incr c_patch;
                    (Patched, s)
                | Rebuild ->
                    Registry.incr c_rebuild;
                    (Rebuilt, s))
              end
        in
        Registry.observe sp_prepare prepare_s;
        let topo = !topo in
        let prepared = Option.get !prepared in
        let model = Option.get !model in
        let pool = Option.get !pool in
        (* The MAC seed is drawn every epoch, tracked or not, so the
           stream stays aligned whatever the probe's routability. *)
        let seed = draw_seed gmac in
        let scale = ep.Scenario.demand_scale in
        let routed =
          if not track then []
          else
            List.filter_map
              (fun f ->
                Option.map
                  (fun p -> (p, f.demand_mbps *. scale))
                  (Router.find_path topo ~metric ~idleness:idleness_one
                     ~source:f.source ~target:f.target))
              !flows
        in
        let probe =
          if not track then None
          else
            Router.find_path topo ~metric ~idleness:idleness_one
              ~source:sc.Scenario.probe_source ~target:sc.Scenario.probe_target
        in
        let tracked, truth_mbps, certified, upper_mbps, estimates,
            columns_generated, columns_pooled, lp_s, mac_s =
          match probe with
          | None ->
              Registry.incr c_untracked;
              (false, 0.0, true, 0.0, None, 0, 0, 0.0, 0.0)
          | Some path ->
              let background =
                List.map (fun (p, d) -> Flow.make ~path:p ~demand_mbps:d) routed
              in
              let result, lp_s =
                time (fun () ->
                    Column_gen.available ?max_iterations ~pricer ?lp_pricing
                      ?stabilize ~pool model ~background ~path)
              in
              Registry.observe sp_lp lp_s;
              let truth, certified, cols, pooled =
                match result with
                | Some r ->
                    ( r.Column_gen.bandwidth_mbps,
                      r.Column_gen.certified,
                      r.Column_gen.columns_generated,
                      r.Column_gen.columns_pooled )
                | None -> (0.0, true, 0, 0)
                (* background infeasible: nothing admittable *)
              in
              let upper = Bounds.clique_upper model ~background ~path in
              let specs =
                List.map
                  (fun (p, d) -> { Sim.links = p; demand_mbps = d })
                  routed
              in
              let stats, mac_s =
                time (fun () ->
                    Sim.run ~seed ~prepared topo ~flows:specs
                      ~duration_us:window_us)
              in
              Registry.observe sp_mac mac_s;
              let obs =
                Array.of_list
                  (List.map
                     (fun l ->
                       {
                         Estimators.rate_mbps = Topology.alone_mbps topo l;
                         idleness = Sim.link_idleness stats topo l;
                       })
                     path)
              in
              let cliques = local_clique_indices model topo path in
              let est = Estimators.all ~cliques obs in
              (true, truth, certified, upper, Some est, cols, pooled, lp_s,
               mac_s)
        in
        {
          index = ep.Scenario.index;
          t_h = ep.Scenario.t_start_h;
          demand_scale = scale;
          n_active =
            Array.fold_left (fun a b -> if b then a + 1 else a) 0 active;
          n_links = Topology.n_links topo;
          n_moved;
          kernel_op;
          kernel_digest = Sim.prepared_digest prepared;
          live_flows = List.length !flows;
          routed_flows = List.length routed;
          tracked;
          truth_mbps;
          certified;
          upper_mbps;
          estimates;
          columns_generated;
          columns_pooled;
          prepare_s;
          lp_s;
          mac_s;
        })
      sc.Scenario.timeline
  in
  { scenario = sc; mode; window_us; rows }

let estimator_names =
  [
    "bottleneck(10)"; "clique(11)"; "min(12)"; "conservative(13)";
    "expected-T(15)";
  ]

let values (e : Estimators.all) =
  [
    e.Estimators.bottleneck;
    e.Estimators.clique_constraint;
    e.Estimators.min_clique_bottleneck;
    e.Estimators.conservative;
    e.Estimators.expected_clique_time;
  ]

let zeros = [ 0.0; 0.0; 0.0; 0.0; 0.0 ]

let mean_errors pairs =
  match pairs with
  | [] -> List.map (fun n -> (n, nan)) estimator_names
  | _ ->
      let n = float_of_int (List.length pairs) in
      let sums =
        List.fold_left
          (fun acc (est, truth) ->
            List.map2 (fun s v -> s +. Float.abs (v -. truth)) acc (values est))
          zeros pairs
      in
      List.map2 (fun name s -> (name, s /. n)) estimator_names sums

let tracking_errors t =
  mean_errors
    (List.filter_map
       (fun r ->
         match r.estimates with
         | Some e when r.tracked -> Some (e, r.truth_mbps)
         | _ -> None)
       t.rows)

(* Pair each tracked epoch's truth with the estimate from the previous
   tracked epoch: the error of acting on stale information. *)
let staleness_errors t =
  let pairs = ref [] in
  let prev = ref None in
  List.iter
    (fun r ->
      match r.estimates with
      | Some e when r.tracked ->
          (match !prev with
          | Some stale -> pairs := (stale, r.truth_mbps) :: !pairs
          | None -> ());
          prev := Some e
      | _ -> ())
    t.rows;
  mean_errors (List.rev !pairs)

let row_artifact r =
  let est =
    match r.estimates with
    | None -> "-"
    | Some e -> String.concat "," (List.map (Printf.sprintf "%h") (values e))
  in
  Printf.sprintf "%d|%h|%h|%d|%d|%d|%s|%d|%d|%b|%h|%b|%h|%s|%d|%d" r.index
    r.t_h r.demand_scale r.n_active r.n_links r.n_moved r.kernel_digest
    r.live_flows r.routed_flows r.tracked r.truth_mbps r.certified
    r.upper_mbps est r.columns_generated r.columns_pooled

let artifact t = String.concat "\n" (List.map row_artifact t.rows)
