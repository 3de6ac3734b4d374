(* Tests for Wsn_parallel: pool semantics (ordering, exceptions,
   nesting, oversubscription) and the determinism contract — every
   parallelised hot path must produce results identical to the
   sequential run at any domain count. *)

module Pool = Wsn_parallel.Pool
module Model = Wsn_conflict.Model
module Independent = Wsn_conflict.Independent
module Column_gen = Wsn_availbw.Column_gen
module Point = Wsn_net.Point
module Topology = Wsn_net.Topology
module Builders = Wsn_net.Builders
module Pcg32 = Wsn_prng.Pcg32
module Spec = Wsn_engine.Spec

let check = Alcotest.check

(* --- pool semantics ------------------------------------------------- *)

let test_map_order () =
  Pool.with_pool ~domains:4 (fun pool ->
      let xs = Array.init 100 Fun.id in
      let got = Pool.map pool (fun x -> x * x) xs in
      check Alcotest.(array int) "map preserves input order" (Array.map (fun x -> x * x) xs) got;
      check Alcotest.(array int) "empty input" [||] (Pool.map pool (fun x -> x) [||]);
      check Alcotest.(array int) "single item" [| 9 |] (Pool.map pool (fun x -> x * x) [| 3 |]))

let test_map_variants () =
  Pool.with_pool ~domains:3 (fun pool ->
      let xs = Array.init 41 Fun.id in
      let expect = Array.map succ xs in
      check Alcotest.(array int) "chunked_map default chunking" expect (Pool.chunked_map pool succ xs);
      check Alcotest.(array int) "chunked_map explicit chunk_size" expect
        (Pool.chunked_map pool ~chunk_size:5 succ xs);
      check Alcotest.(list int) "map_list" (List.init 17 succ)
        (Pool.map_list pool succ (List.init 17 Fun.id));
      check Alcotest.int "map_reduce sums every item" (41 * 42 / 2)
        (Pool.map_reduce pool ~map:succ ~reduce:( + ) ~init:0 xs);
      Alcotest.check_raises "chunk_size 0 rejected"
        (Invalid_argument "Wsn_parallel.Pool.chunked_map: chunk_size must be >= 1") (fun () ->
          ignore (Pool.chunked_map pool ~chunk_size:0 succ xs)))

let test_exception_propagates () =
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.check_raises "worker exception re-raised in the submitter" (Failure "boom")
        (fun () ->
          ignore (Pool.map pool (fun x -> if x = 57 then failwith "boom" else x) (Array.init 100 Fun.id)));
      (* The failed job is cancelled and cleaned up; the pool stays usable. *)
      check Alcotest.(array int) "pool survives a failed job" [| 0; 2; 4 |]
        (Pool.map pool (fun x -> 2 * x) [| 0; 1; 2 |]))

let test_submit_after_shutdown () =
  let escaped = Pool.with_pool ~domains:2 (fun pool -> pool) in
  Alcotest.check_raises "submission after shutdown rejected"
    (Invalid_argument "Wsn_parallel.Pool: submission after shutdown") (fun () ->
      ignore (Pool.map escaped succ (Array.init 8 Fun.id)))

let test_nested_jobs () =
  (* Inner fan-outs submitted from worker/submitter context: newest-job-
     first scheduling plus caller participation must keep this deadlock
     free even with far more jobs than domains. *)
  Pool.with_pool ~domains:3 (fun pool ->
      let got =
        Pool.map pool
          (fun outer ->
            Array.fold_left ( + ) 0 (Pool.map pool (fun inner -> (outer * 100) + inner) (Array.init 40 Fun.id)))
          (Array.init 6 Fun.id)
      in
      let expect = Array.init 6 (fun outer -> (outer * 100 * 40) + (39 * 40 / 2)) in
      check Alcotest.(array int) "nested fan-out" expect got)

let test_oversubscription () =
  (* More domains than cores and many more items than domains. *)
  Pool.with_pool ~domains:8 (fun pool ->
      let xs = Array.init 500 Fun.id in
      check Alcotest.(array int) "oversubscribed pool" (Array.map (fun x -> x * 3) xs)
        (Pool.map pool (fun x -> x * 3) xs))

let test_global_pool () =
  Pool.set_domains 3;
  check Alcotest.int "domains () reflects set_domains" 3 (Pool.domains ());
  check Alcotest.int "global pool sized accordingly" 3 (Pool.size (Pool.global ()));
  check Alcotest.bool "global pool is cached" true (Pool.global () == Pool.global ());
  Pool.set_domains 1;
  check Alcotest.int "back to sequential" 1 (Pool.size (Pool.global ()));
  Alcotest.check_raises "set_domains 0 rejected"
    (Invalid_argument "Wsn_parallel.Pool.set_domains: domains must be >= 1") (fun () ->
      Pool.set_domains 0)

(* --- determinism: parallel == sequential, bit for bit ---------------- *)

(* Every property compares the sequential run with runs at 2 and 4
   domains.  Each arm builds a fresh model so one run's kernel memo pool
   cannot serve another's queries: a parallel arm must recompute
   everything. *)
let random_topology rng ~nodes ~side =
  let positions =
    Array.init nodes (fun _ -> Point.make (Pcg32.uniform rng 0.0 side) (Pcg32.uniform rng 0.0 side))
  in
  Topology.create positions

let at_domains d f =
  Pool.set_domains d;
  Fun.protect ~finally:(fun () -> Pool.set_domains 1) f

let qcheck_enumerate_deterministic =
  QCheck.Test.make ~name:"enumerate_sets identical at 1 and 4 domains, and at 2" ~count:25
    QCheck.(int_bound 10_000)
    (fun seed ->
      let topo = random_topology (Pcg32.create (Int64.of_int seed)) ~nodes:8 ~side:450.0 in
      let universe = List.init (Topology.n_links topo) Fun.id in
      let run d =
        at_domains d (fun () ->
            let model = Model.physical topo in
            try Ok (Independent.enumerate_sets ~max_sets:20_000 model ~universe)
            with Failure m -> Error m)
      in
      let r1 = run 1 in
      r1 = run 2 && r1 = run 4)

let qcheck_columns_deterministic =
  QCheck.Test.make ~name:"columns identical at 1 and 4 domains, and at 2" ~count:15
    QCheck.(int_bound 10_000)
    (fun seed ->
      let topo = random_topology (Pcg32.create (Int64.of_int seed)) ~nodes:7 ~side:400.0 in
      let universe = List.init (Topology.n_links topo) Fun.id in
      let run d =
        at_domains d (fun () ->
            let model = Model.physical topo in
            try Ok (Independent.columns ~max_sets:20_000 model ~universe)
            with Failure m -> Error m)
      in
      let r1 = run 1 in
      r1 = run 2 && r1 = run 4)

let qcheck_colgen_deterministic =
  (* Warm column generation prices candidates in parallel; optimum,
     column/iteration counts and the witness schedule must all match
     the sequential run exactly. *)
  QCheck.Test.make ~name:"warm colgen identical at 1 and 4 domains, and at 2" ~count:10
    QCheck.(int_range 6 12)
    (fun n ->
      let run d =
        at_domains d (fun () ->
            let topo = Builders.chain ~spacing_m:55.0 n in
            let model = Model.physical topo in
            let r =
              Option.get
                (Column_gen.available model ~background:[] ~path:(Builders.chain_hop_links topo))
            in
            ( r.Column_gen.bandwidth_mbps,
              r.Column_gen.columns_generated,
              r.Column_gen.iterations,
              Wsn_sched.Schedule.slots r.Column_gen.schedule ))
      in
      let r1 = run 1 in
      r1 = run 2 && r1 = run 4)

let qcheck_fig3_payload_deterministic =
  (* The whole sweep payload — admission under every metric — through
     the real job runner. *)
  QCheck.Test.make ~name:"fig3 payload identical at 1 and 4 domains, and at 2" ~count:5
    QCheck.(int_bound 1_000)
    (fun seed ->
      let spec =
        Spec.make ~kind:"fig3" ~seed:(Int64.of_int seed) ~n_flows:2 ~demand_mbps:2.0
          ~metric:(Wsn_routing.Metrics.name (List.hd Wsn_routing.Metrics.all))
      in
      let run d = at_domains d (fun () -> Wsn_experiments.Sweep_jobs.runner spec) in
      let r1 = run 1 in
      String.equal r1 (run 2) && String.equal r1 (run 4))

let qcheck_mac_replications_deterministic =
  (* The MAC simulator's replication fan-out, including the shared
     prepared kernel, must match the sequential map bit for bit. *)
  QCheck.Test.make ~name:"mac replications identical at 1 and 4 domains, and at 2" ~count:8
    QCheck.(int_bound 10_000)
    (fun seed ->
      let module Sim = Wsn_mac.Sim in
      let topo = Builders.chain ~spacing_m:55.0 5 in
      let flows =
        [ { Sim.links = Builders.chain_hop_links topo; demand_mbps = 4.0 } ]
      in
      let seeds = List.init 6 (fun i -> Int64.of_int (seed + i + 1)) in
      let run d =
        at_domains d (fun () ->
            let prepared = Sim.prepare topo in
            Sim.run_replications ~prepared ~seeds topo ~flows ~duration_us:100_000)
      in
      let r1 = run 1 in
      compare r1 (run 2) = 0 && compare r1 (run 4) = 0)

let suite =
  [
    Alcotest.test_case "map preserves order" `Quick test_map_order;
    Alcotest.test_case "map variants" `Quick test_map_variants;
    Alcotest.test_case "exception propagates and cancels" `Quick test_exception_propagates;
    Alcotest.test_case "submission after shutdown" `Quick test_submit_after_shutdown;
    Alcotest.test_case "nested jobs" `Quick test_nested_jobs;
    Alcotest.test_case "oversubscription" `Quick test_oversubscription;
    Alcotest.test_case "global pool lifecycle" `Quick test_global_pool;
    QCheck_alcotest.to_alcotest qcheck_enumerate_deterministic;
    QCheck_alcotest.to_alcotest qcheck_columns_deterministic;
    QCheck_alcotest.to_alcotest qcheck_colgen_deterministic;
    QCheck_alcotest.to_alcotest qcheck_fig3_payload_deterministic;
    QCheck_alcotest.to_alcotest qcheck_mac_replications_deterministic;
  ]
