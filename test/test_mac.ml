(* Tests for Wsn_mac: event queue, DCF config, and the CSMA/CA
   simulator on scenarios with known answers. *)

module Event_queue = Wsn_mac.Event_queue
module Dcf_config = Wsn_mac.Dcf_config
module Sim = Wsn_mac.Sim
module Sim_reference = Wsn_oracles.Sim_reference
module Point = Wsn_net.Point
module Topology = Wsn_net.Topology
module Digraph = Wsn_graph.Digraph

let check = Alcotest.check

let test_event_queue_order () =
  let q = Event_queue.create () in
  Event_queue.schedule q ~time:30 "c";
  Event_queue.schedule q ~time:10 "a";
  Event_queue.schedule q ~time:20 "b";
  check Alcotest.int "size" 3 (Event_queue.size q);
  check (Alcotest.option Alcotest.int) "next time" (Some 10) (Event_queue.next_time q);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "ordered drain"
    [ (10, "a"); (20, "b"); (30, "c") ]
    (Event_queue.pop_until q ~time:100);
  check Alcotest.bool "empty after drain" true (Event_queue.is_empty q)

let test_event_queue_fifo_ties () =
  let q = Event_queue.create () in
  Event_queue.schedule q ~time:5 "first";
  Event_queue.schedule q ~time:5 "second";
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "insertion order on ties"
    [ (5, "first"); (5, "second") ]
    (Event_queue.pop_until q ~time:5)

let test_event_queue_pop_until_partial () =
  let q = Event_queue.create () in
  List.iter (fun t -> Event_queue.schedule q ~time:t t) [ 1; 5; 9 ];
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "partial drain"
    [ (1, 1); (5, 5) ]
    (Event_queue.pop_until q ~time:5);
  check Alcotest.int "one left" 1 (Event_queue.size q)

let test_event_queue_validation () =
  let q = Event_queue.create () in
  Alcotest.check_raises "negative time" (Invalid_argument "Event_queue.schedule: negative time")
    (fun () -> Event_queue.schedule q ~time:(-1) ())

let qcheck_event_queue_sorted =
  QCheck.Test.make ~name:"event queue drains in time order" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 60) (int_bound 10_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.schedule q ~time:t t) times;
      let drained = List.map fst (Event_queue.pop_until q ~time:10_000) in
      drained = List.sort compare times)

let test_dcf_config () =
  let c = Dcf_config.default in
  check Alcotest.int "difs slots" 4 (Dcf_config.difs_slots c);
  (* 12000 bits at 54 Mbps = 222.2 us -> 25 slots of 9 us. *)
  check Alcotest.int "tx slots at 54" 25 (Dcf_config.tx_slots c ~rate_mbps:54.0);
  check Alcotest.int "tx slots at 6" 223 (Dcf_config.tx_slots c ~rate_mbps:6.0);
  Alcotest.check_raises "bad rate" (Invalid_argument "Dcf_config.tx_slots: non-positive rate")
    (fun () -> ignore (Dcf_config.tx_slots c ~rate_mbps:0.0))

(* --- simulator ------------------------------------------------------ *)

let pair_topology () =
  Topology.create [| Point.make 0.0 0.0; Point.make 50.0 0.0 |]

let the_link topo s d =
  match Digraph.find_edge (Topology.graph topo) ~src:s ~dst:d with
  | Some e -> e.Digraph.id
  | None -> Alcotest.fail "missing link"

let test_sim_no_traffic_fully_idle () =
  let topo = pair_topology () in
  let stats = Sim.run topo ~flows:[] ~duration_us:100_000 in
  Array.iter (fun idle -> check (Alcotest.float 1e-9) "fully idle" 1.0 idle) stats.Sim.node_idleness;
  check Alcotest.int "nothing sent" 0 stats.Sim.frames_sent

let test_sim_light_load_delivers () =
  let topo = pair_topology () in
  let l = the_link topo 0 1 in
  let stats = Sim.run topo ~flows:[ { Sim.links = [ l ]; demand_mbps = 2.0 } ] ~duration_us:1_000_000 in
  let f = stats.Sim.flows.(0) in
  check Alcotest.bool "goodput near offered" true (Float.abs (f.Sim.delivered_mbps -. 2.0) < 0.15);
  check Alcotest.int "no drops" 0 f.Sim.frames_dropped;
  check Alcotest.int "no collisions" 0 stats.Sim.collisions;
  (* Idleness ~ 1 - 2/54 (plus rounding of frame airtime to slots). *)
  let expected_busy = 2.0 /. 54.0 in
  if Float.abs (1.0 -. stats.Sim.node_idleness.(0) -. expected_busy) > 0.02 then
    Alcotest.failf "idleness %f inconsistent with airtime %f" stats.Sim.node_idleness.(0)
      expected_busy

let test_sim_saturation_below_link_rate () =
  let topo = pair_topology () in
  let l = the_link topo 0 1 in
  let stats = Sim.run topo ~flows:[ { Sim.links = [ l ]; demand_mbps = 80.0 } ] ~duration_us:1_000_000 in
  let f = stats.Sim.flows.(0) in
  check Alcotest.bool "below PHY rate" true (f.Sim.delivered_mbps < 54.0);
  check Alcotest.bool "but substantial" true (f.Sim.delivered_mbps > 20.0)

let test_sim_two_hop_forwarding () =
  let topo =
    Topology.create [| Point.make 0.0 0.0; Point.make 50.0 0.0; Point.make 100.0 0.0 |]
  in
  let l01 = the_link topo 0 1 and l12 = the_link topo 1 2 in
  let stats =
    Sim.run topo ~flows:[ { Sim.links = [ l01; l12 ]; demand_mbps = 4.0 } ] ~duration_us:1_000_000
  in
  let f = stats.Sim.flows.(0) in
  check Alcotest.bool "end-to-end goodput" true (Float.abs (f.Sim.delivered_mbps -. 4.0) < 0.3)

let test_sim_deterministic () =
  let topo = pair_topology () in
  let l = the_link topo 0 1 in
  let flows = [ { Sim.links = [ l ]; demand_mbps = 10.0 } ] in
  let a = Sim.run ~seed:5L topo ~flows ~duration_us:300_000 in
  let b = Sim.run ~seed:5L topo ~flows ~duration_us:300_000 in
  check Alcotest.int "same frames sent" a.Sim.frames_sent b.Sim.frames_sent;
  check (Alcotest.array (Alcotest.float 1e-12)) "same idleness" a.Sim.node_idleness b.Sim.node_idleness

let test_sim_contention_two_senders () =
  (* Two co-located pairs share the channel: each gets roughly half of
     what a lone saturated sender would. *)
  let topo =
    Topology.create
      [| Point.make 0.0 0.0; Point.make 50.0 0.0; Point.make 0.0 50.0; Point.make 50.0 50.0 |]
  in
  let a = the_link topo 0 1 and b = the_link topo 2 3 in
  let stats =
    Sim.run topo
      ~flows:[ { Sim.links = [ a ]; demand_mbps = 80.0 }; { Sim.links = [ b ]; demand_mbps = 80.0 } ]
      ~duration_us:1_000_000
  in
  let d0 = stats.Sim.flows.(0).Sim.delivered_mbps and d1 = stats.Sim.flows.(1).Sim.delivered_mbps in
  check Alcotest.bool "both make progress" true (d0 > 5.0 && d1 > 5.0);
  check Alcotest.bool "rough fairness" true (Float.abs (d0 -. d1) < 0.5 *. (d0 +. d1))

let test_sim_link_idleness_helper () =
  let topo = pair_topology () in
  let l = the_link topo 0 1 in
  let stats = Sim.run topo ~flows:[ { Sim.links = [ l ]; demand_mbps = 2.0 } ] ~duration_us:200_000 in
  let expected = Float.min stats.Sim.node_idleness.(0) stats.Sim.node_idleness.(1) in
  check (Alcotest.float 1e-12) "link idleness = min endpoints" expected
    (Sim.link_idleness stats topo l)

let test_sim_route_validation () =
  let topo = pair_topology () in
  Alcotest.check_raises "empty route" (Invalid_argument "Sim: empty route") (fun () ->
      ignore (Sim.run topo ~flows:[ { Sim.links = []; demand_mbps = 1.0 } ] ~duration_us:1000));
  let l01 = the_link topo 0 1 and l10 = the_link topo 1 0 in
  Alcotest.check_raises "broken chain" (Invalid_argument "Sim: route links do not chain")
    (fun () ->
      ignore
        (Sim.run topo ~flows:[ { Sim.links = [ l01; l01 ] ; demand_mbps = 1.0 } ] ~duration_us:1000));
  ignore l10

let suite =
  [
    Alcotest.test_case "event queue order" `Quick test_event_queue_order;
    Alcotest.test_case "event queue fifo ties" `Quick test_event_queue_fifo_ties;
    Alcotest.test_case "event queue partial drain" `Quick test_event_queue_pop_until_partial;
    Alcotest.test_case "event queue validation" `Quick test_event_queue_validation;
    QCheck_alcotest.to_alcotest qcheck_event_queue_sorted;
    Alcotest.test_case "dcf config" `Quick test_dcf_config;
    Alcotest.test_case "sim no traffic" `Quick test_sim_no_traffic_fully_idle;
    Alcotest.test_case "sim light load" `Slow test_sim_light_load_delivers;
    Alcotest.test_case "sim saturation" `Slow test_sim_saturation_below_link_rate;
    Alcotest.test_case "sim two-hop forwarding" `Slow test_sim_two_hop_forwarding;
    Alcotest.test_case "sim deterministic" `Quick test_sim_deterministic;
    Alcotest.test_case "sim contention fairness" `Slow test_sim_contention_two_senders;
    Alcotest.test_case "sim link idleness helper" `Quick test_sim_link_idleness_helper;
    Alcotest.test_case "sim route validation" `Quick test_sim_route_validation;
  ]

let test_rts_cts_config () =
  let c = Wsn_mac.Dcf_config.with_rts_cts Wsn_mac.Dcf_config.default in
  check Alcotest.bool "flag set" true c.Wsn_mac.Dcf_config.rts_cts;
  (* 12000/54 + 66 us = 288.2 -> 33 slots (25 without). *)
  check Alcotest.int "overhead added" 33 (Wsn_mac.Dcf_config.tx_slots c ~rate_mbps:54.0)

let test_rts_cts_silences_hidden_terminal () =
  (* Classic hidden-terminal line: A -> B <- C with A and C out of each
     other's carrier-sense range but both within B's.
     A--150m--B--150m--C: d(A,C)=300m > cs range 221m. *)
  let topo =
    Topology.create [| Point.make 0.0 0.0; Point.make 150.0 0.0; Point.make 300.0 0.0 |]
  in
  let ab = the_link topo 0 1 and cb = the_link topo 2 1 in
  let flows =
    [ { Sim.links = [ ab ]; demand_mbps = 4.0 }; { Sim.links = [ cb ]; demand_mbps = 4.0 } ]
  in
  let basic = Sim.run topo ~flows ~duration_us:1_000_000 in
  let rts =
    Sim.run ~config:(Wsn_mac.Dcf_config.with_rts_cts Wsn_mac.Dcf_config.default) topo ~flows
      ~duration_us:1_000_000
  in
  check Alcotest.bool "hidden terminal corrupts without RTS/CTS" true (basic.Sim.collisions > 0);
  check Alcotest.bool "RTS/CTS suppresses most corruption" true
    (rts.Sim.collisions * 4 < basic.Sim.collisions)

let rts_suite =
  [
    Alcotest.test_case "rts/cts config" `Quick test_rts_cts_config;
    Alcotest.test_case "rts/cts hidden terminal" `Slow test_rts_cts_silences_hidden_terminal;
  ]

let suite = suite @ rts_suite

let test_sim_latency_tracking () =
  let topo = pair_topology () in
  let l = the_link topo 0 1 in
  let stats = Sim.run topo ~flows:[ { Sim.links = [ l ]; demand_mbps = 2.0 } ] ~duration_us:500_000 in
  let f = stats.Sim.flows.(0) in
  (* One uncontended hop at 54 Mbps: ~222 us airtime + DIFS + backoff;
     latency must land in the few-hundred-microsecond range. *)
  check Alcotest.bool "mean latency plausible" true
    (f.Sim.mean_latency_us > 200.0 && f.Sim.mean_latency_us < 1000.0);
  check Alcotest.bool "p95 >= mean order" true (f.Sim.p95_latency_us >= f.Sim.mean_latency_us -. 50.0)

let test_sim_latency_nan_when_nothing_delivered () =
  let topo = pair_topology () in
  let stats = Sim.run topo ~flows:[ { Sim.links = [ the_link topo 0 1 ]; demand_mbps = 0.0 } ] ~duration_us:50_000 in
  check Alcotest.bool "nan latency" true (Float.is_nan stats.Sim.flows.(0).Sim.mean_latency_us)

let test_sim_latency_grows_under_contention () =
  let topo = pair_topology () in
  let l = the_link topo 0 1 in
  let light = Sim.run topo ~flows:[ { Sim.links = [ l ]; demand_mbps = 1.0 } ] ~duration_us:500_000 in
  let heavy = Sim.run topo ~flows:[ { Sim.links = [ l ]; demand_mbps = 53.0 } ] ~duration_us:500_000 in
  check Alcotest.bool "queueing delay shows up" true
    (heavy.Sim.flows.(0).Sim.mean_latency_us > light.Sim.flows.(0).Sim.mean_latency_us)

let latency_suite =
  [
    Alcotest.test_case "latency tracking" `Slow test_sim_latency_tracking;
    Alcotest.test_case "latency nan when idle" `Quick test_sim_latency_nan_when_nothing_delivered;
    Alcotest.test_case "latency grows under load" `Slow test_sim_latency_grows_under_contention;
  ]

let suite = suite @ latency_suite

(* --- analytic saturation model (Bianchi) ------------------------------ *)

module Saturation = Wsn_oracles.Saturation

let test_saturation_single_station_closed_form () =
  let pred = Saturation.predict ~n_stations:1 ~rate_mbps:54.0 () in
  (* With n = 1: p = 0 and tau = 2 / (W + 1). *)
  check (Alcotest.float 1e-9) "tau closed form" (2.0 /. 17.0) pred.Saturation.tau;
  check (Alcotest.float 1e-9) "no collisions" 0.0 pred.Saturation.collision_probability;
  check Alcotest.bool "below PHY rate" true (pred.Saturation.total_throughput_mbps < 54.0)

let test_saturation_collision_probability_grows () =
  let p n = (Saturation.predict ~n_stations:n ~rate_mbps:54.0 ()).Saturation.collision_probability in
  check Alcotest.bool "monotone in stations" true (p 2 < p 4 && p 4 < p 8)

let test_saturation_validation () =
  Alcotest.check_raises "zero stations"
    (Invalid_argument "Saturation.predict: need at least one station") (fun () ->
      ignore (Saturation.predict ~n_stations:0 ~rate_mbps:54.0 ()));
  Alcotest.check_raises "bad rate" (Invalid_argument "Saturation.predict: non-positive rate")
    (fun () -> ignore (Saturation.predict ~n_stations:1 ~rate_mbps:0.0 ()))

let saturated_sim n_stations =
  (* n co-located sender/receiver pairs; everyone hears everyone. *)
  let positions =
    Array.init (2 * n_stations) (fun i ->
        if i < n_stations then Point.make (float_of_int i *. 2.0) 0.0
        else Point.make (float_of_int (i - n_stations) *. 2.0) 50.0)
  in
  let topo = Topology.create positions in
  let flows =
    List.init n_stations (fun i ->
        match Digraph.find_edge (Topology.graph topo) ~src:i ~dst:(i + n_stations) with
        | Some e -> { Sim.links = [ e.Digraph.id ]; demand_mbps = 80.0 }
        | None -> Alcotest.fail "missing pair link")
  in
  let stats = Sim.run topo ~flows ~duration_us:2_000_000 in
  Array.fold_left (fun acc f -> acc +. f.Sim.delivered_mbps) 0.0 stats.Sim.flows

let test_saturation_matches_simulator_single () =
  let predicted = (Saturation.predict ~n_stations:1 ~rate_mbps:54.0 ()).Saturation.total_throughput_mbps in
  let simulated = saturated_sim 1 in
  let ratio = simulated /. predicted in
  if ratio < 0.9 || ratio > 1.1 then
    Alcotest.failf "single-station sim %.2f vs analytic %.2f (ratio %.3f)" simulated predicted ratio

let test_saturation_tracks_simulator_trend () =
  (* The analytic model is an approximation of a slightly different MAC
     (no ACKs, finite retries): demand agreement within 35% and the
     same order of magnitude across station counts. *)
  List.iter
    (fun n ->
      let predicted = (Saturation.predict ~n_stations:n ~rate_mbps:54.0 ()).Saturation.total_throughput_mbps in
      let simulated = saturated_sim n in
      let ratio = simulated /. predicted in
      if ratio < 0.75 || ratio > 1.35 then
        Alcotest.failf "n=%d: sim %.2f vs analytic %.2f (ratio %.3f)" n simulated predicted ratio)
    [ 2; 5 ]

let saturation_suite =
  [
    Alcotest.test_case "saturation closed form n=1" `Quick test_saturation_single_station_closed_form;
    Alcotest.test_case "saturation p monotone" `Quick test_saturation_collision_probability_grows;
    Alcotest.test_case "saturation validation" `Quick test_saturation_validation;
    Alcotest.test_case "saturation vs sim (n=1)" `Slow test_saturation_matches_simulator_single;
    Alcotest.test_case "saturation vs sim trend" `Slow test_saturation_tracks_simulator_trend;
  ]

let suite = suite @ saturation_suite

(* --- fast-path parity: Sim.run vs Sim_reference.run ------------------- *)

(* The event-driven loop must be byte-identical to the reference, so the
   whole stats record — floats, nans and all — is compared with
   structural [compare] (which, unlike [=], treats nan as equal to
   itself). *)

module Pcg32 = Wsn_prng.Pcg32

let stats_equal a b = compare (a : Sim.stats) (b : Sim.stats) = 0

(* A random scenario derived from one integer: topology (3-8 nodes in a
   350 m box, a per-node x-offset ruling out coincident points), one to
   four flows over random links — extended to two-hop chains when a
   continuation link exists — demands spanning idle to saturated, both
   carrier-sensing modes, random sim seed and duration.  The DCF fields
   are drawn too: DIFS of zero slots, windows whose draws are always 0,
   and retry and queue limits low enough that frames drop, so the fast
   loop's bulk DIFS and backoff countdown meet every edge the reference
   steps through slot by slot. *)
let random_parity_case case =
  let rng = Pcg32.create (Int64.of_int case) in
  let n = 3 + Pcg32.next_below rng 6 in
  let positions =
    Array.init n (fun i ->
        Point.make
          (Pcg32.uniform rng 0.0 350.0 +. (0.01 *. float_of_int i))
          (Pcg32.uniform rng 0.0 350.0))
  in
  let topo = Topology.create positions in
  let n_links = Topology.n_links topo in
  if n_links = 0 then None
  else begin
    let demands = [| 0.0; 0.5; 2.0; 10.0; 60.0 |] in
    let flows =
      List.init
        (1 + Pcg32.next_below rng 4)
        (fun _ ->
          let l = Pcg32.next_below rng n_links in
          let route =
            if Pcg32.next_below rng 2 = 0 then [ l ]
            else begin
              let dst = (Topology.link topo l).Digraph.dst in
              let cont = ref (-1) in
              for l2 = n_links - 1 downto 0 do
                if (Topology.link topo l2).Digraph.src = dst then cont := l2
              done;
              if !cont >= 0 then [ l; !cont ] else [ l ]
            end
          in
          { Sim.links = route; demand_mbps = demands.(Pcg32.next_below rng 5) })
    in
    let base =
      if Pcg32.next_below rng 2 = 0 then Dcf_config.default
      else Dcf_config.with_rts_cts Dcf_config.default
    in
    let pick a = a.(Pcg32.next_below rng (Array.length a)) in
    let difs_us = pick [| 0; 9; 34; 100 |] in
    let cw_min = pick [| 1; 2; 16 |] in
    let cw_max = cw_min lsl Pcg32.next_below rng 7 in
    let retry_limit = pick [| 0; 1; 7 |] in
    let queue_limit = pick [| 1; 4; 64 |] in
    let payload_bits = pick [| 800; 12_000; 40_000 |] in
    let config =
      { base with Dcf_config.difs_us; cw_min; cw_max; retry_limit; queue_limit; payload_bits }
    in
    let duration_us = 20_000 + Pcg32.next_below rng 60_001 in
    let seed = Int64.of_int (1 + Pcg32.next_below rng 1_000_000) in
    Some (topo, flows, config, duration_us, seed)
  end

let qcheck_fast_matches_reference =
  QCheck.Test.make ~name:"fast sim byte-identical to reference" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun case ->
      match random_parity_case case with
      | None -> true
      | Some (topo, flows, config, duration_us, seed) ->
        stats_equal
          (Sim.run ~config ~seed topo ~flows ~duration_us)
          (Sim_reference.run ~config ~seed topo ~flows ~duration_us))

let qcheck_prepared_sharing_is_pure =
  (* One kernel shared across seeds and both configs changes nothing. *)
  QCheck.Test.make ~name:"shared prepared kernel changes nothing" ~count:20
    QCheck.(int_bound 1_000_000)
    (fun case ->
      match random_parity_case case with
      | None -> true
      | Some (topo, flows, _, duration_us, seed) ->
        let prepared = Sim.prepare topo in
        List.for_all
          (fun config ->
            stats_equal
              (Sim.run ~config ~seed ~prepared topo ~flows ~duration_us)
              (Sim.run ~config ~seed topo ~flows ~duration_us))
          [ Dcf_config.default; Dcf_config.with_rts_cts Dcf_config.default ])

let test_prepared_topology_mismatch () =
  let a = pair_topology () and b = pair_topology () in
  let prepared = Sim.prepare a in
  Alcotest.check_raises "foreign kernel rejected"
    (Invalid_argument "Sim.run: prepared kernel built for a different topology") (fun () ->
      ignore (Sim.run ~prepared b ~flows:[] ~duration_us:1000))

let test_replications_match_sequential () =
  (* At the default single-domain pool; test_parallel re-checks this at
     several pool sizes (domain spawning must wait until after the
     engine suite's forks). *)
  let topo = pair_topology () in
  let l = the_link topo 0 1 in
  let flows = [ { Sim.links = [ l ]; demand_mbps = 10.0 } ] in
  let seeds = [ 1L; 2L; 3L ] in
  let batch = Sim.run_replications ~seeds topo ~flows ~duration_us:200_000 in
  let sequential = List.map (fun seed -> Sim.run ~seed topo ~flows ~duration_us:200_000) seeds in
  check Alcotest.bool "replications = sequential map" true
    (List.for_all2 stats_equal batch sequential)

let test_idle_skip_credits_idleness_exactly () =
  (* With no traffic every slot is skippable; idleness must come out at
     exactly 1.0 — bulk credit, not an approximation.  (The companion
     telemetry test pins mac.slots_skipped = total slots.) *)
  let topo = pair_topology () in
  let stats = Sim.run topo ~flows:[] ~duration_us:90_000 in
  Array.iter
    (fun idle -> check (Alcotest.float 0.0) "exactly fully idle" 1.0 idle)
    stats.Sim.node_idleness;
  (* And with a pause mid-run: one flow whose demand stops generating
     arrivals long before the horizon still matches the reference's
     busy accounting slot for slot. *)
  let l = the_link topo 0 1 in
  let flows = [ { Sim.links = [ l ]; demand_mbps = 0.5 } ] in
  let fast = Sim.run topo ~flows ~duration_us:400_000 in
  let slow = Sim_reference.run topo ~flows ~duration_us:400_000 in
  check (Alcotest.array (Alcotest.float 0.0)) "bulk busy credit exact" slow.Sim.node_idleness
    fast.Sim.node_idleness

let test_event_queue_drain_until () =
  let q = Event_queue.create () in
  List.iter (fun t -> Event_queue.schedule q ~time:t t) [ 4; 1; 9; 1 ];
  let seen = ref [] in
  Event_queue.drain_until q ~time:4 (fun t v -> seen := (t, v) :: !seen);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "drained in order" [ (1, 1); (1, 1); (4, 4) ] (List.rev !seen);
  check Alcotest.int "later event kept" 1 (Event_queue.size q);
  (* Events scheduled from inside the callback at or before the horizon
     are drained by the same call. *)
  let q2 = Event_queue.create () in
  Event_queue.schedule q2 ~time:0 0;
  let hops = ref 0 in
  Event_queue.drain_until q2 ~time:3 (fun t _ ->
      incr hops;
      Event_queue.schedule q2 ~time:(t + 1) 0);
  check Alcotest.int "same-batch reschedules drained" 4 !hops;
  check Alcotest.int "first out of horizon kept" 1 (Event_queue.size q2)

(* Two fixed scenarios at the extremes of slot jumping, each on seeds
   1-3.  Saturated: eight co-located sender/receiver pairs far beyond
   link capacity, so every slot has contenders and the loop jumps only
   the busy periods, where every contender is frozen or counting down.
   Light: one 0.5 Mbit/s flow down an 8-node chain that sits idle
   between frames, where the fast loop jumps almost every slot. *)
let saturated_pairs () =
  let n_pairs = 8 in
  let topo =
    Topology.create
      (Array.init (2 * n_pairs) (fun i ->
           if i < n_pairs then Point.make (float_of_int i *. 2.0) 0.0
           else Point.make (float_of_int (i - n_pairs) *. 2.0) 50.0))
  in
  let flows =
    List.init n_pairs (fun i -> { Sim.links = [ the_link topo i (i + n_pairs) ]; demand_mbps = 80.0 })
  in
  (topo, flows)

let light_chain () =
  let topo = Wsn_net.Builders.chain ~spacing_m:50.0 8 in
  (topo, [ { Sim.links = Wsn_net.Builders.chain_hop_links topo; demand_mbps = 0.5 } ])

let check_fixed_parity ?(configs = [ Dcf_config.default ]) (topo, flows) ~duration_us () =
  let prepared = Sim.prepare topo in
  List.iter
    (fun config ->
      List.iter
        (fun seed ->
          check Alcotest.bool
            (Printf.sprintf "rts_cts %b, seed %Ld: run = Sim_reference.run" config.Dcf_config.rts_cts
               seed)
            true
            (stats_equal
               (Sim.run ~config ~seed ~prepared topo ~flows ~duration_us)
               (Sim_reference.run ~config ~seed topo ~flows ~duration_us)))
        [ 1L; 2L; 3L ])
    configs

module Registry = Wsn_telemetry.Registry

(* [mac.slots_skipped] and [mac.slots] of one seed-1 run. *)
let skip_counts (topo, flows) ~duration_us =
  Registry.reset ();
  Registry.set_enabled true;
  let snap =
    Fun.protect
      ~finally:(fun () ->
        Registry.set_enabled false;
        Registry.reset ())
      (fun () ->
        ignore (Sim.run ~seed:1L topo ~flows ~duration_us);
        Registry.snapshot ())
  in
  let counter n = Option.value ~default:0 (List.assoc_opt n snap.Registry.counters) in
  (counter "mac.slots_skipped", counter "mac.slots")

let test_light_chain_skips_idle_slots () =
  let skipped, slots = skip_counts (light_chain ()) ~duration_us:1_000_000 in
  check Alcotest.bool
    (Printf.sprintf "skipped %d of %d slots (>= 90%%)" skipped slots)
    true
    (slots > 0 && 10 * skipped >= 9 * slots)

(* Saturated contention: a contender is always waiting, so only the
   jump over busy periods can fire.  Seed 1 jumps 19111 of 33333 slots
   (seeds 2 and 3: 17211 and 19125); a loop that jumps only slots with
   no contender at all jumps 2 of them (seeds 2 and 3: 1 and 0). *)
let test_saturated_pairs_jump_busy_slots () =
  let skipped, slots = skip_counts (saturated_pairs ()) ~duration_us:300_000 in
  check Alcotest.bool
    (Printf.sprintf "jumped %d of %d slots (>= 50%%)" skipped slots)
    true
    (slots > 0 && 2 * skipped >= slots)

let parity_suite =
  [
    Alcotest.test_case "saturated 8 pairs run = ref" `Quick
      (check_fixed_parity (saturated_pairs ()) ~duration_us:300_000);
    Alcotest.test_case "light 8-chain run = ref" `Quick
      (check_fixed_parity (light_chain ()) ~duration_us:1_000_000);
    Alcotest.test_case "light 8-chain skips >= 90%" `Quick
      test_light_chain_skips_idle_slots;
    Alcotest.test_case "saturated 8 pairs jumps >= 50%" `Quick
      test_saturated_pairs_jump_busy_slots;
    QCheck_alcotest.to_alcotest qcheck_fast_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_prepared_sharing_is_pure;
    Alcotest.test_case "prepared topology mismatch" `Quick test_prepared_topology_mismatch;
    Alcotest.test_case "replications = sequential" `Slow test_replications_match_sequential;
    Alcotest.test_case "idle skip credits idleness" `Quick test_idle_skip_credits_idleness_exactly;
    Alcotest.test_case "event queue drain_until" `Quick test_event_queue_drain_until;
  ]

let suite = suite @ parity_suite

(* --- busy intervals and multi-word sets ---------------------------------- *)

(* [run] credits busy time per busy period, opened when a node's busy
   refcount leaves zero and closed when it returns there or when the
   window ends.  Each case is compared with the reference on seeds 1-3,
   with RTS/CTS off and on. *)
let both_modes config = [ config; Dcf_config.with_rts_cts config ]

(* Busy slots of each node in a reference run, read back from its
   idleness. *)
let reference_busy ~config ~seed (topo, flows) ~duration_us =
  let st = Sim_reference.run ~config ~seed topo ~flows ~duration_us in
  let total = float_of_int (duration_us / config.Dcf_config.slot_us) in
  Array.map (fun idle -> int_of_float (Float.round ((1.0 -. idle) *. total))) st.Sim.node_idleness

(* A window that ends mid-frame.  The eight saturated pairs keep 25-slot
   frames on the air nearly all the time, and the window length is one
   where, at every seed and in both modes, a frame is on the air in the
   last slot, so busy periods are still open when the window closes.
   The reference confirms it: a run one slot shorter is a prefix of the
   same run (arrivals draw nothing from the PRNG), and every node's busy
   count grows by one over the last slot, as the transmitter of a frame
   in flight or a node it silences. *)
let test_window_ends_busy () =
  let case = saturated_pairs () and duration_us = 124_457 in
  let slot_us = Dcf_config.default.Dcf_config.slot_us in
  List.iter
    (fun config ->
      List.iter
        (fun seed ->
          let full = reference_busy ~config ~seed case ~duration_us in
          let short = reference_busy ~config ~seed case ~duration_us:(duration_us - slot_us) in
          check Alcotest.bool
            (Printf.sprintf "rts_cts %b, seed %Ld: last slot busy at every node"
               config.Dcf_config.rts_cts seed)
            true
            (Array.for_all2 (fun f s -> f = s + 1) full short))
        [ 1L; 2L; 3L ])
    (both_modes Dcf_config.default);
  check_fixed_parity ~configs:(both_modes Dcf_config.default) case ~duration_us ()

(* Frames of one slot: 48 payload bits take at most 8 µs at the slowest
   rate (6 Mbit/s) and the RTS/CTS exchange is given no airtime, so
   every frame starts and finishes in the same slot, and a busy period
   can open and close in one slot.  Two crossing flows on a four-node
   chain keep both ends of the chain contending. *)
let test_one_slot_frames () =
  let config =
    { Dcf_config.default with Dcf_config.payload_bits = 48; rts_cts_overhead_us = 0 }
  in
  List.iter
    (fun r ->
      List.iter
        (fun rate_mbps ->
          check Alcotest.int "one-slot frame" 1 (Dcf_config.tx_slots r ~rate_mbps))
        [ 54.0; 6.0 ])
    (both_modes config);
  let topo = Wsn_net.Builders.chain ~spacing_m:60.0 4 in
  let flows =
    [
      { Sim.links = Wsn_net.Builders.chain_hop_links topo; demand_mbps = 2.0 };
      { Sim.links = [ the_link topo 3 2; the_link topo 2 1 ]; demand_mbps = 4.0 };
    ]
  in
  check_fixed_parity ~configs:(both_modes config) (topo, flows) ~duration_us:60_000 ()

(* A 100-node grid spans two 63-bit words of every station set.  Chains
   along rows 0, 3, 6 and 9 (the row-6 chain runs over nodes 61-64,
   across the word boundary) and one along column 1 keep transmitters,
   contenders and silenced nodes in both words; nodes 540 m apart
   neither hear nor silence each other, so frames overlap across the
   grid. *)
let multiword_grid () =
  let cols = 10 in
  let topo = Wsn_net.Builders.grid ~pitch_m:60.0 ~rows:10 cols in
  let chain nodes =
    let rec links = function a :: (b :: _ as rest) -> the_link topo a b :: links rest | _ -> [] in
    links nodes
  in
  let row r c0 = List.init 4 (fun c -> (r * cols) + c0 + c) in
  let flows =
    List.map
      (fun (nodes, demand_mbps) -> { Sim.links = chain nodes; demand_mbps })
      [
        (row 0 3, 4.0);
        (List.rev (row 3 3), 2.0);
        (row 6 1, 8.0);
        (row 9 3, 4.0);
        (List.init 4 (fun r -> ((r + 5) * cols) + 1), 3.0);
      ]
  in
  (topo, flows)

let test_multiword_parity () =
  let topo, _ = multiword_grid () in
  check Alcotest.bool "more than one word" true (Topology.n_nodes topo > Wsn_conflict.Bitset.word_bits);
  check_fixed_parity ~configs:(both_modes Dcf_config.default) (multiword_grid ())
    ~duration_us:60_000 ()

let suite =
  suite
  @ [
      Alcotest.test_case "window ends with busy periods open" `Quick test_window_ends_busy;
      Alcotest.test_case "one-slot frames run = ref" `Quick test_one_slot_frames;
      Alcotest.test_case "100-node grid run = ref" `Quick test_multiword_parity;
    ]
