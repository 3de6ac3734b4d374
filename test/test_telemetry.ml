(* Tests for Wsn_telemetry: registry semantics, histogram quantiles on
   known data, span nesting, JSON snapshot round-trip through the
   codec's parser, and an end-to-end check that solving the paper's
   Scenario II chain leaves solver counters behind. *)

module Registry = Wsn_telemetry.Registry
module Histogram = Wsn_telemetry.Histogram
module Span = Wsn_telemetry.Span
module Export = Wsn_telemetry.Export
module Json = Wsn_telemetry.Json

let check = Alcotest.check

(* The registry is process-global and the test binary runs many suites;
   every test scrubs its state on the way in and out. *)
let with_registry f =
  Registry.reset ();
  Registry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Registry.set_enabled false;
      Registry.reset ())
    f

(* The snapshot as written to disk, parsed back by the codec. *)
let parse_snapshot snap =
  match Json.parse (Json.to_string_pretty (Export.to_json snap)) with
  | Ok v -> v
  | Error msg -> Alcotest.failf "snapshot JSON does not parse: %s" msg

let member name v =
  match Json.member name v with
  | Some m -> m
  | None -> Alcotest.failf "missing JSON member %S" name

(* --- registry ------------------------------------------------------- *)

let registry_counters_gauges () =
  with_registry (fun () ->
      let c = Registry.counter "test.counter" in
      Registry.incr c;
      Registry.incr c;
      Registry.add c 40;
      check Alcotest.int "counter accumulates" 42 (Registry.counter_value c);
      check Alcotest.bool "interned handle" true (c == Registry.counter "test.counter");
      let g = Registry.gauge "test.gauge" in
      Registry.set g 3.0;
      Registry.set_max g 2.0;
      check (Alcotest.float 0.0) "set_max keeps high water" 3.0 (Registry.gauge_value g);
      Registry.set_max g 7.5;
      check (Alcotest.float 0.0) "set_max raises" 7.5 (Registry.gauge_value g);
      let h = Registry.histogram "test.hist" in
      Registry.observe h 1.0;
      Registry.observe h 2.0;
      let snap = Registry.snapshot () in
      check Alcotest.int "snapshot counter" 42 (List.assoc "test.counter" snap.Registry.counters);
      let d = List.assoc "test.hist" snap.Registry.histograms in
      check Alcotest.int "snapshot histogram count" 2 d.Registry.count)

let registry_disabled_is_noop () =
  Registry.reset ();
  Registry.set_enabled false;
  let c = Registry.counter "test.disabled" in
  Registry.incr c;
  Registry.add c 10;
  let g = Registry.gauge "test.disabled_gauge" in
  Registry.set g 5.0;
  let h = Registry.histogram "test.disabled_hist" in
  Registry.observe h 1.0;
  check Alcotest.int "disabled counter untouched" 0 (Registry.counter_value c);
  check (Alcotest.float 0.0) "disabled gauge untouched" 0.0 (Registry.gauge_value g);
  let snap = Registry.snapshot () in
  check Alcotest.bool "nothing recorded" true
    (snap.Registry.counters = [] && snap.Registry.gauges = [] && snap.Registry.histograms = [])

(* --- histogram ------------------------------------------------------ *)

let histogram_known_quantiles () =
  let h = Histogram.create () in
  for v = 1 to 1000 do
    Histogram.observe h (float_of_int v)
  done;
  check Alcotest.int "count" 1000 (Histogram.count h);
  check (Alcotest.float 1e-9) "min" 1.0 (Histogram.min_value h);
  check (Alcotest.float 1e-9) "max" 1000.0 (Histogram.max_value h);
  check (Alcotest.float 1e-6) "sum" 500500.0 (Histogram.sum h);
  (* Log-scale buckets are a factor 10^0.1 wide: quantiles are accurate
     to ~13% relative error. *)
  let within q expected =
    let got = Histogram.quantile h q in
    if Float.abs (got -. expected) > 0.13 *. expected then
      Alcotest.failf "q%.2f: got %g, want %g +-13%%" q got expected
  in
  within 0.50 500.0;
  within 0.90 900.0;
  within 0.99 990.0;
  check (Alcotest.float 1e-9) "q1 clamps to max" 1000.0 (Histogram.quantile h 1.0)

let histogram_edge_cases () =
  let h = Histogram.create () in
  check Alcotest.bool "empty quantile is nan" true (Float.is_nan (Histogram.quantile h 0.5));
  (* Constant data reports itself exactly thanks to min/max clamping. *)
  for _ = 1 to 10 do
    Histogram.observe h 7.0
  done;
  check (Alcotest.float 1e-9) "constant p50" 7.0 (Histogram.quantile h 0.5);
  check (Alcotest.float 1e-9) "constant p99" 7.0 (Histogram.quantile h 0.99);
  (* Zero and negative observations land in the underflow bucket. *)
  let z = Histogram.create () in
  Histogram.observe z 0.0;
  Histogram.observe z (-3.0);
  Histogram.observe z 5.0;
  check Alcotest.int "underflow counted" 3 (Histogram.count z);
  check (Alcotest.float 1e-9) "underflow p50 is 0" 0.0 (Histogram.quantile z 0.5)

let histogram_percentiles () =
  let h = Histogram.create () in
  check Alcotest.bool "empty percentile is nan" true (Float.is_nan (Histogram.percentile h 50.0));
  for v = 1 to 1000 do
    Histogram.observe h (float_of_int v)
  done;
  check (Alcotest.float 1e-9) "p50 = quantile 0.5" (Histogram.quantile h 0.5)
    (Histogram.percentile h 50.0);
  check (Alcotest.float 1e-9) "p99 = quantile 0.99" (Histogram.quantile h 0.99)
    (Histogram.percentile h 99.0);
  check (Alcotest.float 1e-9) "p100 clamps to max" 1000.0 (Histogram.percentile h 100.0);
  (* p0 lands in the lowest non-empty bucket; its geometric-midpoint
     representative sits within one bucket's relative error of the true
     minimum (it is not clamped down to it). *)
  check (Alcotest.float 1e-9) "p0 = quantile 0" (Histogram.quantile h 0.0)
    (Histogram.percentile h 0.0);
  check Alcotest.bool "p0 within lowest-bucket error of min" true
    (let p0 = Histogram.percentile h 0.0 in
     p0 >= 1.0 && p0 <= 10.0 ** (1.0 /. 10.0));
  Alcotest.check_raises "out of range raises"
    (Invalid_argument "Histogram.percentile: percentile must be in [0, 100]") (fun () ->
      ignore (Histogram.percentile h 101.0));
  (* The registry accessor reads the same figures through the handle's
     lock, without exporting a snapshot. *)
  with_registry (fun () ->
      let rh = Registry.histogram "percentile.test" in
      check Alcotest.int "empty count" 0 (Registry.histogram_count rh);
      Registry.observe rh 10.0;
      Registry.observe rh 20.0;
      Registry.observe rh 30.0;
      check Alcotest.int "count" 3 (Registry.histogram_count rh);
      let p50 = Registry.histogram_percentile rh 50.0 in
      let p100 = Registry.histogram_percentile rh 100.0 in
      check Alcotest.bool "registry p50 in observed range" true (p50 >= 10.0 && p50 <= 30.0);
      check Alcotest.bool "registry percentiles ordered" true (p50 <= p100);
      (* Bucketed, so p100 is the top bucket's representative clamped
         into the observed range — within one bucket width of the max. *)
      check Alcotest.bool "registry p100 near max" true
        (p100 <= 30.0 && p100 >= 30.0 /. 10.0 ** (1.0 /. 10.0)))

(* --- spans ---------------------------------------------------------- *)

let span_nesting () =
  with_registry (fun () ->
      let saw = ref [] in
      let result =
        Span.with_span "outer" (fun () ->
            saw := Span.current () :: !saw;
            let x =
              Span.with_span "inner" (fun () ->
                  saw := Span.current () :: !saw;
                  21)
            in
            x * 2)
      in
      check Alcotest.int "value threads through" 42 result;
      check Alcotest.int "stack empty after" 0 (Span.depth ());
      check
        (Alcotest.list (Alcotest.list Alcotest.string))
        "stacks seen inside" [ [ "inner"; "outer" ]; [ "outer" ] ] !saw;
      let snap = Registry.snapshot () in
      let outer = List.assoc "outer" snap.Registry.spans in
      let inner = List.assoc "inner" snap.Registry.spans in
      check Alcotest.int "outer count" 1 outer.Registry.count;
      check Alcotest.int "inner count" 1 inner.Registry.count;
      check Alcotest.bool "outer encloses inner" true (outer.Registry.sum >= inner.Registry.sum))

let span_exception_unwinds () =
  with_registry (fun () ->
      (try Span.with_span "boom" (fun () -> failwith "expected") with Failure _ -> ());
      check Alcotest.int "stack unwound" 0 (Span.depth ());
      let snap = Registry.snapshot () in
      check Alcotest.int "failed span still recorded" 1
        (List.assoc "boom" snap.Registry.spans).Registry.count)

let span_disabled_passthrough () =
  Registry.reset ();
  Registry.set_enabled false;
  check Alcotest.int "disabled span runs body" 5 (Span.with_span "off" (fun () -> 5));
  check Alcotest.int "no stack when disabled"
    0 (Span.depth ());
  let snap = Registry.snapshot () in
  check Alcotest.bool "no span recorded" true (snap.Registry.spans = [])

(* --- JSON export ---------------------------------------------------- *)

let json_roundtrip () =
  with_registry (fun () ->
      Registry.add (Registry.counter "a.count") 7;
      Registry.set (Registry.gauge "a.gauge") 2.5;
      Registry.set (Registry.gauge "a.nan_gauge") nan;
      let h = Registry.histogram "a.hist \"quoted\\name\"" in
      Registry.observe h 10.0;
      Registry.observe h 1000.0;
      ignore (Span.with_span "a.span" (fun () -> ()));
      let parsed = parse_snapshot (Registry.snapshot ()) in
      (match member "a.count" (member "counters" parsed) with
       | Json.Num v -> check (Alcotest.float 0.0) "counter value" 7.0 v
       | _ -> Alcotest.fail "counter not a number");
      (match member "a.nan_gauge" (member "gauges" parsed) with
       | Json.Null -> ()
       | _ -> Alcotest.fail "nan must encode as null");
      let hist = member "a.hist \"quoted\\name\"" (member "histograms" parsed) in
      (match (member "count" hist, member "min" hist, member "max" hist) with
       | Json.Num c, Json.Num lo, Json.Num hi ->
         check (Alcotest.float 0.0) "hist count" 2.0 c;
         check (Alcotest.float 1e-9) "hist min" 10.0 lo;
         check (Alcotest.float 1e-9) "hist max" 1000.0 hi
       | _ -> Alcotest.fail "hist stats not numbers");
      match member "a.span" (member "spans" parsed) with
      | Json.Obj _ -> ()
      | _ -> Alcotest.fail "span stats missing")

let json_empty_snapshot () =
  Registry.reset ();
  match parse_snapshot (Registry.snapshot ()) with
  | Json.Obj fields ->
    check
      (Alcotest.list Alcotest.string)
      "sections present"
      [ "counters"; "gauges"; "histograms"; "spans" ]
      (List.map fst fields)
  | _ -> Alcotest.fail "expected object"

(* --- integration: Scenario II chain leaves solver telemetry --------- *)

let scenario_ii_counts_pivots () =
  with_registry (fun () ->
      let module S2 = Wsn_workload.Scenarios.Scenario_ii in
      let r = Wsn_availbw.Path_bandwidth.path_capacity S2.model ~path:S2.path in
      check (Alcotest.float 1e-4) "still the paper optimum" 16.2
        r.Wsn_availbw.Path_bandwidth.bandwidth_mbps;
      let snap = Registry.snapshot () in
      let counter name =
        match List.assoc_opt name snap.Registry.counters with Some v -> v | None -> 0
      in
      check Alcotest.bool "lp.pivots > 0" true (counter "lp.pivots" > 0);
      check Alcotest.bool "lp.solves > 0" true (counter "lp.solves" > 0);
      check Alcotest.bool "colgen.columns > 0" true (counter "colgen.columns" > 0);
      check Alcotest.bool "colgen.lp_resolves > 0" true (counter "colgen.lp_resolves" > 0);
      let solve = List.assoc "lp.solve" snap.Registry.spans in
      check Alcotest.bool "lp.solve latency recorded" true
        (solve.Registry.count > 0 && solve.Registry.sum > 0.0))

(* --- integration: MAC fast path reports skip and activity metrics --- *)

let mac_sim_skip_metrics () =
  with_registry (fun () ->
      let module Sim = Wsn_mac.Sim in
      let module Dcf = Wsn_mac.Dcf_config in
      let topo = Wsn_net.Builders.chain ~spacing_m:50.0 2 in
      (* No traffic: every slot is skipped, and the bulk credit must be
         exact — the counter equals the slot horizon. *)
      let stats = Sim.run topo ~flows:[] ~duration_us:90_000 in
      let total_slots = stats.Sim.duration_us / Dcf.default.Dcf.slot_us in
      let counter name =
        let snap = Registry.snapshot () in
        match List.assoc_opt name snap.Registry.counters with Some v -> v | None -> 0
      in
      check Alcotest.int "all slots skipped when idle" total_slots (counter "mac.slots_skipped");
      (* Light traffic: some slots skip, some run, and the active-station
         histogram records the transmission on/off transitions. *)
      let route = Wsn_net.Builders.chain_hop_links topo in
      let skipped_before = counter "mac.slots_skipped" in
      let stats = Sim.run topo ~flows:[ { Sim.links = route; demand_mbps = 2.0 } ] ~duration_us:200_000 in
      check Alcotest.bool "delivered something" true (stats.Sim.flows.(0).Sim.frames_delivered > 0);
      check Alcotest.bool "still skips between frames" true
        (counter "mac.slots_skipped" > skipped_before);
      let snap = Registry.snapshot () in
      let dist = List.assoc "mac.active_stations" snap.Registry.histograms in
      check Alcotest.bool "active-station samples recorded" true (dist.Registry.count > 0);
      check (Alcotest.float 1e-9) "single sender peaks at one station" 1.0 dist.Registry.max_v)

(* --- domain safety: concurrent increments must not be lost ----------- *)

let two_domain_hammer () =
  with_registry (fun () ->
      let n = 100_000 in
      let c = Registry.counter "hammer.count" in
      let g = Registry.gauge "hammer.max" in
      let h = Registry.histogram "hammer.obs" in
      let work lo =
        for i = lo to lo + n - 1 do
          Registry.incr c;
          Registry.set_max g (float_of_int i);
          if i land 1023 = 0 then Registry.observe h (float_of_int i)
        done
      in
      (* One spawned domain plus this one, hammering the same
         instruments: atomics must not lose increments, the CAS max
         must win over any interleaving, and the mutexed histogram
         must record every observation. *)
      let d = Domain.spawn (fun () -> work 0) in
      work n;
      Domain.join d;
      check Alcotest.int "no lost increments" (2 * n) (Registry.counter_value c);
      check (Alcotest.float 0.0) "set_max saw the global max"
        (float_of_int ((2 * n) - 1))
        (Registry.gauge_value g);
      let snap = Registry.snapshot () in
      let dist = List.assoc "hammer.obs" snap.Registry.histograms in
      check Alcotest.int "no lost observations" (2 * ((n + 1023) / 1024)) dist.Registry.count)

let suite =
  [
    Alcotest.test_case "registry counters and gauges" `Quick registry_counters_gauges;
    Alcotest.test_case "registry disabled is a no-op" `Quick registry_disabled_is_noop;
    Alcotest.test_case "histogram quantiles on known data" `Quick histogram_known_quantiles;
    Alcotest.test_case "histogram edge cases" `Quick histogram_edge_cases;
    Alcotest.test_case "percentile accessors" `Quick histogram_percentiles;
    Alcotest.test_case "span nesting" `Quick span_nesting;
    Alcotest.test_case "span exception unwinds" `Quick span_exception_unwinds;
    Alcotest.test_case "span disabled passthrough" `Quick span_disabled_passthrough;
    Alcotest.test_case "json snapshot round-trips" `Quick json_roundtrip;
    Alcotest.test_case "json empty snapshot" `Quick json_empty_snapshot;
    Alcotest.test_case "scenario II solve counts pivots" `Quick scenario_ii_counts_pivots;
    Alcotest.test_case "mac sim skip metrics" `Quick mac_sim_skip_metrics;
  ]

(* Registered separately, after the engine suite: spawning a domain
   forbids Unix.fork for the rest of the process (OCaml 5), and the
   engine suite forks. *)
let domain_suite = [ Alcotest.test_case "two-domain hammer" `Quick two_domain_hammer ]
