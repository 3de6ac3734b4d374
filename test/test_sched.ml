(* Tests for Wsn_sched: schedules, feasibility, idleness. *)

module Schedule = Wsn_sched.Schedule
module Idleness = Wsn_sched.Idleness
module Point = Wsn_net.Point
module Topology = Wsn_net.Topology
module Model = Wsn_conflict.Model
module S1 = Wsn_workload.Scenarios.Scenario_i
module S2 = Wsn_workload.Scenarios.Scenario_ii

let check = Alcotest.check

let float_tol = Alcotest.float 1e-9

let table = Model.rates S2.model

let slot links rates share = { Schedule.links; rates; share }

let test_make_validation () =
  Alcotest.check_raises "negative share" (Invalid_argument "Schedule.make: negative share")
    (fun () -> ignore (Schedule.make [ slot [ 0 ] [ 0 ] (-0.1) ]));
  Alcotest.check_raises "misaligned" (Invalid_argument "Schedule.make: links and rates misaligned")
    (fun () -> ignore (Schedule.make [ slot [ 0; 1 ] [ 0 ] 0.5 ]));
  Alcotest.check_raises "repeated link" (Invalid_argument "Schedule.make: repeated link in slot")
    (fun () -> ignore (Schedule.make [ slot [ 0; 0 ] [ 0; 0 ] 0.5 ]))

let test_zero_share_dropped () =
  let s = Schedule.make [ slot [ 0 ] [ 0 ] 0.0; slot [ 1 ] [ 0 ] 0.4 ] in
  check Alcotest.int "one slot kept" 1 (List.length (Schedule.slots s));
  check float_tol "total share" 0.4 (Schedule.total_share s)

let test_throughput () =
  (* Scenario II's paper schedule delivers 16.2 on every link. *)
  let s =
    Schedule.make
      [
        slot [ 0 ] [ S2.rate_54 ] 0.1;
        slot [ 0; 3 ] [ S2.rate_36; S2.rate_54 ] 0.3;
        slot [ 1 ] [ S2.rate_54 ] 0.3;
        slot [ 2 ] [ S2.rate_54 ] 0.3;
      ]
  in
  List.iter (fun l -> check float_tol (Printf.sprintf "link %d" l) 16.2 (Schedule.throughput table s l)) [ 0; 1; 2; 3 ];
  check float_tol "absent link" 0.0 (Schedule.throughput table s 9);
  check (Alcotest.list Alcotest.int) "link ids" [ 0; 1; 2; 3 ] (Schedule.link_ids s);
  check Alcotest.bool "feasible under the model" true (Schedule.is_feasible S2.model s);
  check Alcotest.bool "meets 16.2 demands" true
    (Schedule.meets_demands table s [ (0, 16.2); (1, 16.2); (2, 16.2); (3, 16.2) ]);
  check Alcotest.bool "fails 17 demand" false (Schedule.meets_demands table s [ (0, 17.0) ])

let test_infeasible_slot_detected () =
  (* Links 0 and 1 of the chain always interfere. *)
  let s = Schedule.make [ slot [ 0; 1 ] [ S2.rate_36; S2.rate_36 ] 0.5 ] in
  check Alcotest.bool "conflicting slot" false (Schedule.is_feasible S2.model s)

let test_overcommitted_share_detected () =
  let s = Schedule.make [ slot [ 0 ] [ S2.rate_54 ] 0.7; slot [ 1 ] [ S2.rate_54 ] 0.7 ] in
  check Alcotest.bool "share over one" false (Schedule.is_feasible S2.model s)

(* --- idleness over a geometric topology ---------------------------- *)

let three_node_line () =
  (* 0 --50m-- 1 --50m-- 2; everyone hears everyone (cs range 221 m). *)
  Topology.create [| Point.make 0.0 0.0; Point.make 50.0 0.0; Point.make 100.0 0.0 |]

let link topo s d =
  match Wsn_graph.Digraph.find_edge (Topology.graph topo) ~src:s ~dst:d with
  | Some e -> e.Wsn_graph.Digraph.id
  | None -> Alcotest.fail "missing link"

let test_idleness_single_slot () =
  let topo = three_node_line () in
  let l01 = link topo 0 1 in
  let s = Schedule.make [ slot [ l01 ] [ 0 ] 0.3 ] in
  (* All three nodes hear the transmission from node 0. *)
  List.iter
    (fun v -> check float_tol (Printf.sprintf "node %d busy" v) 0.3 (Idleness.node_busy_share topo s v))
    [ 0; 1; 2 ];
  check float_tol "idleness" 0.7 (Idleness.node_idleness topo s 2);
  check float_tol "link idleness Eq.10" 0.7 (Idleness.link_idleness topo s (link topo 1 2))

let test_idleness_far_node_unaffected () =
  let topo =
    Topology.create [| Point.make 0.0 0.0; Point.make 50.0 0.0; Point.make 1000.0 0.0 |]
  in
  let l01 = link topo 0 1 in
  let s = Schedule.make [ slot [ l01 ] [ 0 ] 0.5 ] in
  check float_tol "far node stays idle" 1.0 (Idleness.node_idleness topo s 2)

let test_idleness_caps_at_one () =
  let topo = three_node_line () in
  let l01 = link topo 0 1 and l12 = link topo 1 2 in
  let s = Schedule.make [ slot [ l01 ] [ 0 ] 0.8; slot [ l12 ] [ 0 ] 0.8 ] in
  (* Slots sum to 1.6 (an infeasible schedule, but idleness math must
     still clamp). *)
  check float_tol "busy capped" 1.0 (Idleness.node_busy_share topo s 1);
  check float_tol "idleness floored" 0.0 (Idleness.node_idleness topo s 1)

let test_empty_schedule_idleness () =
  let topo = three_node_line () in
  check float_tol "empty schedule: fully idle" 1.0 (Idleness.node_idleness topo Schedule.empty 0)

(* --- the node-idleness table ------------------------------------------ *)

module Generator = Wsn_net.Generator
module Pcg32 = Wsn_prng.Pcg32
module Metrics = Wsn_routing.Metrics
module Router = Wsn_routing.Router

(* A random 6-12-node connected topology and a random schedule of 0-5
   slots over its links.  Shares are drawn up to 0.6 each with no cap on
   their total, so slots a node hears can overlap past a busy share of
   one (the clamp path); zero slots is the empty schedule. *)
let random_table_case seed =
  let rng = Pcg32.create (Int64.of_int seed) in
  let n = 6 + Pcg32.next_below rng 7 in
  let topo =
    Generator.connected_topology rng
      { Generator.n_nodes = n; width_m = 300.0; height_m = 300.0; max_placement_attempts = 1000 }
  in
  let n_links = Topology.n_links topo in
  let slot () =
    let links = List.filter (fun _ -> Pcg32.next_below rng 4 = 0) (List.init n_links Fun.id) in
    { Schedule.links; rates = List.map (fun _ -> 0) links; share = Pcg32.uniform rng 0.0 0.6 }
  in
  (topo, Schedule.make (List.init (Pcg32.next_below rng 6) (fun _ -> slot ())))

(* Every table entry is the very float [node_idleness] returns, and
   every metric routes every pair on the table exactly as on
   [link_idleness]. *)
let table_agrees topo sched =
  let table = Idleness.node_table topo sched in
  let n = Topology.n_nodes topo in
  let pairs = List.concat_map (fun s -> List.init n (fun t -> (s, t))) (List.init n Fun.id) in
  let same_route metric (source, target) =
    source = target
    || Router.find_path topo ~metric ~idleness:(Idleness.table_link_idleness topo table) ~source
         ~target
       = Router.find_path topo ~metric ~idleness:(Idleness.link_idleness topo sched) ~source ~target
  in
  Array.length table = n
  && List.for_all (fun v -> Float.equal table.(v) (Idleness.node_idleness topo sched v)) (List.init n Fun.id)
  && List.for_all (fun metric -> List.for_all (same_route metric) pairs) Metrics.all

let qcheck_node_table =
  QCheck.Test.make ~name:"node table = node_idleness; routes on it = routes on link_idleness"
    ~count:200 (QCheck.int_bound 1_000_000) (fun seed ->
      let topo, sched = random_table_case seed in
      table_agrees topo sched && table_agrees topo Schedule.empty)

let suite =
  [
    Alcotest.test_case "make validation" `Quick test_make_validation;
    Alcotest.test_case "zero share dropped" `Quick test_zero_share_dropped;
    Alcotest.test_case "throughput & feasibility" `Quick test_throughput;
    Alcotest.test_case "infeasible slot detected" `Quick test_infeasible_slot_detected;
    Alcotest.test_case "overcommitted share detected" `Quick test_overcommitted_share_detected;
    Alcotest.test_case "idleness single slot" `Quick test_idleness_single_slot;
    Alcotest.test_case "idleness far node" `Quick test_idleness_far_node_unaffected;
    Alcotest.test_case "idleness caps" `Quick test_idleness_caps_at_one;
    Alcotest.test_case "idleness empty schedule" `Quick test_empty_schedule_idleness;
    QCheck_alcotest.to_alcotest qcheck_node_table;
  ]

