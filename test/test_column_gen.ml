(* Tests for Wsn_conflict.Pricing and Wsn_availbw.Column_gen: the
   column-generation pipeline must agree with full enumeration. *)

module Model = Wsn_conflict.Model
module Independent = Wsn_conflict.Independent
module Pricing = Wsn_conflict.Pricing
module Physical_naive = Wsn_oracles.Physical_naive
module Rate = Wsn_radio.Rate
module Builders = Wsn_net.Builders
module Schedule = Wsn_sched.Schedule
module Flow = Wsn_availbw.Flow
module Path_bandwidth = Wsn_availbw.Path_bandwidth
module Column_gen = Wsn_availbw.Column_gen
module S2 = Wsn_workload.Scenarios.Scenario_ii
module Hyp = Wsn_experiments.Hypothesis

let check = Alcotest.check

let float_tol = Alcotest.float 1e-5

(* --- pricing --------------------------------------------------------- *)

let test_pricing_singleton () =
  (* Uniform weights on the chain: the best set is {0@36, 3@54} with
     value 36 + 54 = 90 (all other pairs conflict; singleton best 54). *)
  let weights _ = 1.0 in
  match Pricing.max_weight_independent S2.model ~weights ~universe:S2.path with
  | Some (assignment, value) ->
    check float_tol "value 90" 90.0 value;
    check
      (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
      "the relief pair"
      [ (0, S2.rate_36); (3, S2.rate_54) ]
      (List.sort compare assignment)
  | None -> Alcotest.fail "positive weights must price something"

let test_pricing_respects_weights () =
  (* Weight only link 1: best is the singleton {1@54}. *)
  let weights l = if l = 1 then 1.0 else 0.0 in
  match Pricing.max_weight_independent S2.model ~weights ~universe:S2.path with
  | Some (assignment, value) ->
    check float_tol "value 54" 54.0 value;
    check Alcotest.int "single member" 1 (List.length assignment)
  | None -> Alcotest.fail "expected a set"

let test_pricing_no_positive_weights () =
  check Alcotest.bool "nothing to price" true
    (Pricing.max_weight_independent S2.model ~weights:(fun _ -> 0.0) ~universe:S2.path = None)

let qcheck_pricing_matches_enumeration =
  (* Oracle: evaluate every column of the full enumeration under the
     same weights; pricing must find a set at least as good. *)
  QCheck.Test.make ~name:"pricing = brute-force max over all columns" ~count:60
    QCheck.(pair (int_bound 100_000) (array_of_size (Gen.return 4) (float_range 0.0 2.0)))
    (fun (seed, weights_arr) ->
      let rng = Wsn_prng.Pcg32.create (Int64.of_int seed) in
      let model = Hyp.random_model rng ~n_links:4 in
      let universe = [ 0; 1; 2; 3 ] in
      let weights l = weights_arr.(l) in
      let columns = Independent.columns ~filter_dominated:false model ~universe in
      let brute =
        List.fold_left
          (fun acc (c : Independent.column) ->
            let v =
              List.fold_left2
                (fun acc l r -> acc +. (weights l *. Rate.mbps (Model.rates model) r))
                0.0 c.Independent.links c.Independent.rates
            in
            Float.max acc v)
          0.0 columns
      in
      match Pricing.max_weight_independent model ~weights ~universe with
      | Some (_, value) -> Float.abs (value -. brute) < 1e-6
      | None -> brute < 1e-6)

(* --- column generation ----------------------------------------------- *)

(* Bare path capacity: column generation with no background. *)
let path_capacity ?pricer model ~path =
  match Column_gen.available ?pricer model ~background:[] ~path with
  | Some r -> r
  | None -> Alcotest.fail "no background cannot be infeasible"

let test_cg_chain_16_2 () =
  let r = path_capacity S2.model ~path:S2.path in
  check float_tol "16.2" 16.2 r.Column_gen.bandwidth_mbps;
  check Alcotest.bool "witness feasible" true (Schedule.is_feasible S2.model r.Column_gen.schedule);
  check Alcotest.bool "few columns" true (r.Column_gen.columns_generated <= 8)

let test_cg_with_background () =
  let background = [ Flow.make ~path:[ 1 ] ~demand_mbps:8.0 ] in
  let enum =
    match Path_bandwidth.available S2.model ~background ~path:S2.path with
    | Some r -> r.Path_bandwidth.bandwidth_mbps
    | None -> Alcotest.fail "feasible"
  in
  match Column_gen.available S2.model ~background ~path:S2.path with
  | Some r -> check float_tol "agrees with enumeration" enum r.Column_gen.bandwidth_mbps
  | None -> Alcotest.fail "feasible"

let test_cg_detects_infeasible_background () =
  let background = [ Flow.make ~path:[ 1 ] ~demand_mbps:60.0 ] in
  check Alcotest.bool "None on infeasible" true
    (Column_gen.available S2.model ~background ~path:S2.path = None)

let test_cg_physical_chain () =
  let topo = Builders.chain ~spacing_m:55.0 10 in
  let model = Model.physical topo in
  let path = Builders.chain_hop_links topo in
  let enum = (Path_bandwidth.path_capacity model ~path).Path_bandwidth.bandwidth_mbps in
  let cg = path_capacity model ~path in
  check float_tol "physical chain agrees" enum cg.Column_gen.bandwidth_mbps;
  check Alcotest.bool "shares sum to at most 1" true
    (Schedule.total_share cg.Column_gen.schedule <= 1.0 +. 1e-9)

let qcheck_cg_equals_enumeration =
  QCheck.Test.make ~name:"column generation = enumeration on random models" ~count:40
    QCheck.(pair (int_bound 100_000) (float_range 0.0 12.0))
    (fun (seed, load) ->
      let rng = Wsn_prng.Pcg32.create (Int64.of_int seed) in
      let model = Hyp.random_model rng ~n_links:4 in
      let path = [ 0; 1; 2; 3 ] in
      let background = if load > 0.5 then [ Flow.make ~path:[ 2 ] ~demand_mbps:load ] else [] in
      let enum = Path_bandwidth.available model ~background ~path in
      let cg = Column_gen.available model ~background ~path in
      match (enum, cg) with
      | Some e, Some c ->
        Float.abs (e.Path_bandwidth.bandwidth_mbps -. c.Column_gen.bandwidth_mbps) < 1e-5
      | None, None -> true
      | _ -> false)

let test_cg_validation () =
  Alcotest.check_raises "empty path" (Invalid_argument "Column_gen: empty path") (fun () ->
      ignore (Column_gen.available S2.model ~background:[] ~path:[]))

let test_e14_smoke () =
  let rows = Wsn_experiments.Scalability.run ~lengths:[ 8; 12 ] () in
  List.iter
    (fun (r : Wsn_experiments.Scalability.row) ->
      (match r.Wsn_experiments.Scalability.enum_columns with
       | Some enum_cols ->
         check Alcotest.bool "cg generates no more columns" true
           (r.Wsn_experiments.Scalability.cg_columns <= enum_cols)
       | None -> ());
      check Alcotest.bool "positive optimum" true (r.Wsn_experiments.Scalability.optimum_mbps > 0.0))
    rows

let suite =
  [
    Alcotest.test_case "pricing singleton" `Quick test_pricing_singleton;
    Alcotest.test_case "pricing respects weights" `Quick test_pricing_respects_weights;
    Alcotest.test_case "pricing no positive weights" `Quick test_pricing_no_positive_weights;
    QCheck_alcotest.to_alcotest qcheck_pricing_matches_enumeration;
    Alcotest.test_case "cg chain 16.2" `Quick test_cg_chain_16_2;
    Alcotest.test_case "cg with background" `Quick test_cg_with_background;
    Alcotest.test_case "cg infeasible background" `Quick test_cg_detects_infeasible_background;
    Alcotest.test_case "cg physical chain" `Slow test_cg_physical_chain;
    QCheck_alcotest.to_alcotest qcheck_cg_equals_enumeration;
    Alcotest.test_case "cg validation" `Quick test_cg_validation;
    Alcotest.test_case "E14 smoke" `Slow test_e14_smoke;
  ]

(* --- heuristic pricing tier ------------------------------------------ *)

module Pricing_greedy = Wsn_conflict.Pricing_greedy
module Generator = Wsn_net.Generator
module Proto = Wsn_admission.Protocol

(* A small random physical instance: a connected uniform-disk topology
   (8-16 nodes in a paper-density area) with a handful of routed
   flows, the same shape the scale experiment queries at 30-1000
   nodes. *)
let random_physical_instance seed =
  let n_nodes = 8 + (seed mod 9) in
  let streams = Wsn_prng.Streams.create (Int64.of_int (1_000 + seed)) in
  let cfg =
    { (Wsn_workload.Scenarios.Scale_scenario.config ~n_nodes:30) with Generator.n_nodes }
  in
  let topo = Generator.connected_topology (Wsn_prng.Streams.stream streams "topology") cfg in
  let model = Model.physical topo in
  let pairs =
    Generator.random_pairs (Wsn_prng.Streams.stream streams "flows") ~n_nodes ~count:3
  in
  let idleness _ = 1.0 in
  let paths =
    List.filter_map
      (fun (s, d) ->
        Wsn_routing.Router.find_path topo
          ~metric:Wsn_routing.Metrics.E2e_transmission_delay ~idleness ~source:s ~target:d)
      pairs
  in
  (model, paths)

(* Every assignment the greedy pricer returns must be feasible under
   the model it priced against: re-validate with a whole-set
   [max_vector] query (the kernel's incremental add/undo is exactly
   what built it, so this also cross-checks Inc against the batch
   path) and require the claimed rates to be the true maxima. *)
let qcheck_heuristic_columns_feasible =
  QCheck.Test.make ~name:"heuristic pricer only emits feasible assignments" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let model, paths = random_physical_instance seed in
      match paths with
      | [] -> QCheck.assume_fail ()
      | _ -> (
        let universe = List.sort_uniq compare (List.concat paths) in
        let weights l = 0.1 +. float_of_int ((l * 7919) mod 13) in
        match Pricing_greedy.max_weight_independent model ~weights ~universe with
        | None -> true
        | Some (assignment, value) -> (
          let links = List.map fst assignment in
          match Model.max_vector model links with
          | None -> false (* claimed set is not even feasible *)
          | Some rates ->
            let rates_ok =
              List.for_all2 (fun (_, r) r' -> r = r') assignment (Array.to_list rates)
            in
            let value' =
              List.fold_left
                (fun acc (l, r) -> acc +. (weights l *. Rate.mbps (Model.rates model) r))
                0.0 assignment
            in
            rates_ok && Float.abs (value -. value') < 1e-9)))

(* The heuristic can only miss value, never exceed the exact pricer. *)
let qcheck_heuristic_below_exact =
  QCheck.Test.make ~name:"heuristic pricer value <= exact pricer value" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let model, paths = random_physical_instance seed in
      match paths with
      | [] -> QCheck.assume_fail ()
      | _ -> (
        let universe = List.sort_uniq compare (List.concat paths) in
        let weights l = 0.1 +. float_of_int ((l * 104_729) mod 11) in
        let heuristic = Pricing_greedy.max_weight_independent model ~weights ~universe in
        let exact = Pricing.max_weight_independent model ~weights ~universe in
        match (heuristic, exact) with
        | Some (_, h), Some (_, e) -> h <= e +. 1e-6
        | None, _ -> true
        | Some _, None -> false))

(* Auto tier on paper-scale instances: the universe is far below
   [auto_exact_max], so the exact fallback certifies and the result is
   the same optimum as the exact tier — byte-identical through the
   wire quantisation the admission server gates on. *)
let qcheck_auto_equals_exact =
  QCheck.Test.make ~name:"auto pricer = exact pricer (wire-identical, small instances)"
    ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let model, paths = random_physical_instance seed in
      match paths with
      | [] | [ _ ] -> QCheck.assume_fail ()
      | path :: rest ->
        let background = List.map (fun p -> Flow.make ~path:p ~demand_mbps:0.4) rest in
        let auto = Column_gen.available ~pricer:Column_gen.Auto model ~background ~path in
        let exact = Column_gen.available ~pricer:Column_gen.Exact model ~background ~path in
        (match (auto, exact) with
         | Some a, Some e ->
           a.Column_gen.certified
           && Proto.mbps a.Column_gen.bandwidth_mbps = Proto.mbps e.Column_gen.bandwidth_mbps
         | None, None -> true
         | _ -> false))

(* Declared models exercise the kernel-less builder path. *)
let qcheck_auto_equals_exact_declared =
  QCheck.Test.make ~name:"auto = exact on random declared models" ~count:40
    QCheck.(pair (int_bound 100_000) (float_range 0.0 12.0))
    (fun (seed, load) ->
      let rng = Wsn_prng.Pcg32.create (Int64.of_int seed) in
      let model = Hyp.random_model rng ~n_links:4 in
      let path = [ 0; 1; 2; 3 ] in
      let background = if load > 0.5 then [ Flow.make ~path:[ 2 ] ~demand_mbps:load ] else [] in
      let auto = Column_gen.available ~pricer:Column_gen.Auto model ~background ~path in
      let exact = Column_gen.available ~pricer:Column_gen.Exact model ~background ~path in
      match (auto, exact) with
      | Some a, Some e ->
        a.Column_gen.certified
        && Float.abs (a.Column_gen.bandwidth_mbps -. e.Column_gen.bandwidth_mbps) < 1e-6
      | None, None -> true
      | _ -> false)

let test_heuristic_tier_uncertified_lower_bound () =
  (* Pure heuristic tier on the chain: a valid lower bound on 16.2,
     flagged uncertified or — if the greedy happens to stall at the
     optimum — still never above it. *)
  let r = path_capacity ~pricer:Column_gen.Heuristic S2.model ~path:S2.path in
  check Alcotest.bool "lower bound" true (r.Column_gen.bandwidth_mbps <= 16.2 +. 1e-6);
  check Alcotest.bool "positive" true (r.Column_gen.bandwidth_mbps > 0.0);
  check Alcotest.bool "uncertified" false r.Column_gen.certified;
  check Alcotest.bool "witness feasible" true
    (Schedule.is_feasible S2.model r.Column_gen.schedule)

let test_anytime_iteration_cap () =
  (* A one-iteration cap under the heuristic tier must return (not
     raise) and stay a valid lower bound; Exact keeps raising. *)
  let r =
    Column_gen.available ~max_iterations:1 ~pricer:Column_gen.Heuristic S2.model
      ~background:[] ~path:S2.path
  in
  (match r with
   | Some r ->
     check Alcotest.bool "anytime lower bound" true
       (r.Column_gen.bandwidth_mbps <= 16.2 +. 1e-6);
     check Alcotest.bool "uncertified at cap" false r.Column_gen.certified
   | None -> Alcotest.fail "heuristic tier must not claim infeasibility");
  Alcotest.check_raises "exact still raises" (Failure "Column_gen: did not converge")
    (fun () ->
      ignore
        (Column_gen.available ~max_iterations:0 ~pricer:Column_gen.Exact S2.model
           ~background:[] ~path:S2.path))

let test_shards_partition () =
  (* The shards always partition the universe. *)
  let model, paths = random_physical_instance 17 in
  let universe = List.sort_uniq compare (List.concat paths) in
  let parts = Pricing_greedy.shards model universe in
  check (Alcotest.list Alcotest.int) "partition covers the universe" universe
    (List.sort compare (List.concat parts));
  (* Kernel-less models have no geometry: a single shard. *)
  let rng = Wsn_prng.Pcg32.create 5L in
  let declared = Hyp.random_model rng ~n_links:4 in
  check Alcotest.int "declared: one shard" 1
    (List.length (Pricing_greedy.shards declared [ 0; 1; 2; 3 ]))

let heuristic_suite =
  [
    QCheck_alcotest.to_alcotest qcheck_heuristic_columns_feasible;
    QCheck_alcotest.to_alcotest qcheck_heuristic_below_exact;
    QCheck_alcotest.to_alcotest qcheck_auto_equals_exact;
    QCheck_alcotest.to_alcotest qcheck_auto_equals_exact_declared;
    Alcotest.test_case "heuristic tier lower bound" `Quick
      test_heuristic_tier_uncertified_lower_bound;
    Alcotest.test_case "anytime iteration cap" `Quick test_anytime_iteration_cap;
    Alcotest.test_case "shards partition" `Quick test_shards_partition;
  ]

(* --- sensitivity: what-if predictions vs re-solving ------------------ *)

(* On random certified physical instances, a demand-scaling what-if
   answered from the cached basis must quantise to the same wire figure
   as a fresh certified re-solve of the scaled instance whenever the
   factor lies inside the reported basis-stability range.  The factor
   is drawn per flow as a point inside its own range, so the identity
   is probed exactly where the engine promises it. *)
let qcheck_whatif_matches_resolve =
  QCheck.Test.make ~name:"in-range whatif_scale is wire-identical to a re-solve" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let model, paths = random_physical_instance seed in
      match paths with
      | [] | [ _ ] -> true (* need a probed path plus background *)
      | path :: rest ->
        let demand i = 0.25 +. (0.25 *. float_of_int (1 + ((seed + i) mod 3))) in
        let background = List.mapi (fun i p -> Flow.make ~path:p ~demand_mbps:(demand i)) rest in
        (match Column_gen.available_sens ~pricer:Column_gen.Exact model ~background ~path with
         | None, _ | _, None -> true (* infeasible background: no view to test *)
         | Some _, Some s ->
           List.for_all
             (fun k ->
               let lo, hi = Column_gen.scale_ranging s k in
               (* A point strictly inside the range, biased by the seed;
                  [hi] can be infinite, so cap the upward probe. *)
               let hi = Float.min hi 4.0 in
               let frac = float_of_int ((seed / (k + 1)) mod 5) /. 5.0 in
               let factor = lo +. (frac *. (hi -. lo)) in
               let w = Column_gen.whatif_scale s k ~factor in
               let scaled =
                 List.mapi
                   (fun i (f : Flow.t) ->
                     if i <> k then f
                     else Flow.make ~path:f.path ~demand_mbps:(f.demand_mbps *. factor))
                   background
               in
               match
                 Column_gen.available ~pricer:Column_gen.Exact model ~background:scaled ~path
               with
               | Some r ->
                 w.Column_gen.w_feasible
                 && Proto.mbps w.Column_gen.w_mbps = Proto.mbps r.Column_gen.bandwidth_mbps
               | None -> not w.Column_gen.w_feasible)
             (List.init (List.length background) Fun.id)))

(* The dual view must be pure reads: interleaving what-ifs (including
   repivoting ones) with prices must leave the warm master able to
   answer the original query unchanged. *)
let test_sensitivity_reads_are_pure () =
  let model, paths = random_physical_instance 7 in
  match paths with
  | path :: (_ :: _ as rest) -> (
    let background = List.map (fun p -> Flow.make ~path:p ~demand_mbps:0.5) rest in
    match Column_gen.available_sens ~pricer:Column_gen.Exact model ~background ~path with
    | Some r, Some s ->
      let before = Proto.mbps r.Column_gen.bandwidth_mbps in
      List.iter
        (fun factor ->
          List.iteri
            (fun k _ -> ignore (Column_gen.whatif_scale s k ~factor))
            background)
        [ 0.0; 0.5; 1.0; 2.0; 10.0 ];
      ignore (Column_gen.link_prices s);
      ignore (Column_gen.throttle_ranking s);
      (* Factor 1 is always in range and must reproduce the optimum. *)
      let w = Column_gen.whatif_scale s 0 ~factor:1.0 in
      check Alcotest.bool "factor 1 feasible" true w.Column_gen.w_feasible;
      check (Alcotest.float 1e-9) "factor 1 reproduces the optimum" before
        (Proto.mbps w.Column_gen.w_mbps)
    | _ -> Alcotest.fail "instance should be feasible and certified")
  | _ -> Alcotest.fail "instance should route several flows"

(* The pool and the dual view only change how an answer is reached.  A
   sequence of queries over one instance — every routed flow probed in
   turn against the others, at two demand levels and then the first
   level again, so later queries replay earlier columns — shares one
   pool; each pooled answer must quantise to the pool-less one, and
   [available_sens] must return exactly [available]'s figure. *)
let qcheck_pool_and_sens_keep_answers =
  QCheck.Test.make ~name:"pool and dual view never change the answer" ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      let model, paths = random_physical_instance seed in
      match paths with
      | [] | [ _ ] -> QCheck.assume_fail ()
      | _ ->
        let pricer = if seed mod 2 = 0 then Column_gen.Exact else Column_gen.Auto in
        let pool = Column_gen.create_pool () in
        let mbps = Option.map (fun r -> Proto.mbps r.Column_gen.bandwidth_mbps) in
        let query demand k =
          let path = List.nth paths k in
          let background =
            List.filteri (fun i _ -> i <> k) paths
            |> List.map (fun p -> Flow.make ~path:p ~demand_mbps:demand)
          in
          let plain = Column_gen.available ~pricer model ~background ~path in
          let pooled = Column_gen.available ~pricer ~pool model ~background ~path in
          let sens, _ = Column_gen.available_sens ~pricer model ~background ~path in
          mbps pooled = mbps plain
          &&
          match (sens, plain) with
          | Some s, Some p -> Float.equal s.Column_gen.bandwidth_mbps p.Column_gen.bandwidth_mbps
          | None, None -> true
          | _ -> false
        in
        List.for_all
          (fun demand -> List.for_all (query demand) (List.init (List.length paths) Fun.id))
          [ 0.3; 0.6; 0.3 ])

let sensitivity_suite =
  [
    QCheck_alcotest.to_alcotest qcheck_pool_and_sens_keep_answers;
    QCheck_alcotest.to_alcotest qcheck_whatif_matches_resolve;
    Alcotest.test_case "sensitivity reads are pure" `Quick test_sensitivity_reads_are_pure;
  ]

let suite = suite @ heuristic_suite @ sensitivity_suite

(* --- exact pricing: clique-cover bound and hard-conflict pre-filter --- *)

module Bounds = Wsn_availbw.Bounds

(* The pricer agrees with an exhaustive oracle: the same optimum up to
   float summation order, and an assignment that is feasible and worth
   exactly the value returned (summed in assignment order, as the
   search sums it). *)
let pricing_matches model ~weights ~universe ~brute =
  match Pricing.max_weight_independent model ~weights ~universe with
  | None -> brute = 0.0
  | Some (assignment, value) ->
    let tbl = Model.rates model in
    let revalued =
      List.fold_left (fun acc (l, r) -> acc +. (weights l *. Rate.mbps tbl r)) 0.0 assignment
    in
    Model.feasible model assignment
    && Float.equal revalued value
    && Float.abs (value -. brute) <= 1e-12 *. Float.max 1.0 brute

(* Weights as an LP master produces them: sparse, otherwise spread out. *)
let random_weights rng n =
  let draw _ =
    if Wsn_prng.Pcg32.next_below rng 4 = 0 then 0.0 else Wsn_prng.Pcg32.uniform rng 0.1 2.0
  in
  let w = Array.init n draw in
  fun l -> w.(l)

let column_value model ~weights (c : Independent.column) =
  List.fold_left2
    (fun acc l r -> acc +. (weights l *. Rate.mbps (Model.rates model) r))
    0.0 c.Independent.links c.Independent.rates

let qcheck_exact_pricing_physical =
  QCheck.Test.make ~name:"exact pricer = enumeration on random physical instances" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let model, paths = random_physical_instance seed in
      let universe = List.sort_uniq compare (List.concat paths) in
      if universe = [] then QCheck.assume_fail ()
      else begin
        let weights =
          random_weights (Wsn_prng.Pcg32.create (Int64.of_int seed)) (Model.n_links model)
        in
        let brute =
          List.fold_left
            (fun acc c -> Float.max acc (column_value model ~weights c))
            0.0
            (Independent.columns ~filter_dominated:false model ~universe)
        in
        pricing_matches model ~weights ~universe ~brute
      end)

(* A declared model whose pairwise interference is drawn independently
   per rate pair (probability 3/4, so about a third of the pairs are
   hard conflicts), so it need not be monotone in rate: a pair may
   clash at 36/36 and not at 54/54.  Some links support only 36, some
   none. *)
let random_declared rng ~n_links =
  let coin () = Wsn_prng.Pcg32.next_below rng 4 <> 0 in
  let clash = Hashtbl.create 64 in
  for i = 0 to n_links - 1 do
    for j = i + 1 to n_links - 1 do
      List.iter
        (fun ri ->
          List.iter
            (fun rj -> Hashtbl.replace clash (i, ri, j, rj) (coin ()))
            [ S2.rate_54; S2.rate_36 ])
        [ S2.rate_54; S2.rate_36 ]
    done
  done;
  let alone =
    Array.init n_links (fun _ ->
        match Wsn_prng.Pcg32.next_below rng 6 with
        | 0 -> []
        | 1 -> [ S2.rate_36 ]
        | _ -> [ S2.rate_54; S2.rate_36 ])
  in
  Model.declared ~n_links ~rates:Rate.chain_36_54
    ~alone_rates:(fun l -> alone.(l))
    ~interferes:(fun (l1, r1) (l2, r2) ->
      l1 = l2
      || Hashtbl.find clash (if l1 < l2 then (l1, r1, l2, r2) else (l2, r2, l1, r1)))

(* Every assignment: each link absent or at one of its alone rates. *)
let brute_force_assignments model ~weights ~universe =
  let tbl = Model.rates model in
  let rec go acc value = function
    | [] -> if acc = [] || Model.feasible model acc then value else 0.0
    | l :: rest ->
      List.fold_left
        (fun best r ->
          Float.max best (go ((l, r) :: acc) (value +. (weights l *. Rate.mbps tbl r)) rest))
        (go acc value rest) (Model.alone_rates model l)
  in
  go [] 0.0 universe

let qcheck_exact_pricing_declared =
  QCheck.Test.make ~name:"exact pricer = enumeration on non-monotone declared models" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Wsn_prng.Pcg32.create (Int64.of_int seed) in
      let n_links = 7 in
      let model = random_declared rng ~n_links in
      let weights = random_weights rng n_links in
      let universe = List.init n_links Fun.id in
      pricing_matches model ~weights ~universe
        ~brute:(brute_force_assignments model ~weights ~universe))

let test_exact_pricing_multiword () =
  (* 70 candidates, more than one 63-bit word of blocked positions: ten
     hard-conflict groups (l mod 10), plus pairs of groups five apart
     that clash only when both run at 36 — not a hard conflict, so the
     pricer must not block them.  The optimum takes each group's
     heaviest link (60..69) at 54. *)
  let n_links = 70 in
  let group l = l mod 10 in
  let model =
    Model.declared ~n_links ~rates:Rate.chain_36_54
      ~alone_rates:(fun _ -> [ S2.rate_54; S2.rate_36 ])
      ~interferes:(fun (l1, r1) (l2, r2) ->
        group l1 = group l2
        || (abs (group l1 - group l2) = 5 && r1 = S2.rate_36 && r2 = S2.rate_36))
  in
  let weights l = 1.0 +. (float_of_int l /. 100.0) in
  let expect =
    List.fold_left (fun acc l -> acc +. (54.0 *. weights l)) 0.0 (List.init 10 (( + ) 60))
  in
  match Pricing.max_weight_independent model ~weights ~universe:(List.init n_links Fun.id) with
  | None -> Alcotest.fail "positive weights must price something"
  | Some (assignment, value) ->
    check (Alcotest.float (1e-12 *. expect)) "optimum" expect value;
    check
      (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
      "heaviest link of every group, at 54"
      (List.init 10 (fun g -> (60 + g, S2.rate_54)))
      (List.sort compare assignment);
    check Alcotest.bool "feasible" true (Model.feasible model assignment)

let qcheck_clique_upper_above_optimum =
  QCheck.Test.make ~name:"clique_upper >= certified column-generation optimum" ~count:40
    QCheck.(pair (int_bound 100_000) (float_range 0.1 1.5))
    (fun (seed, demand_mbps) ->
      let model, paths = random_physical_instance seed in
      match paths with
      | [] -> QCheck.assume_fail ()
      | path :: rest -> (
        let background = List.map (fun p -> Flow.make ~path:p ~demand_mbps) rest in
        let upper = Bounds.clique_upper model ~background ~path in
        match Column_gen.available model ~background ~path with
        | Some r ->
          r.Column_gen.certified
          && upper >= r.Column_gen.bandwidth_mbps -. (1e-9 *. Float.max 1.0 upper)
        | None -> true))

let clique_cover_suite =
  [
    QCheck_alcotest.to_alcotest qcheck_exact_pricing_physical;
    QCheck_alcotest.to_alcotest qcheck_exact_pricing_declared;
    Alcotest.test_case "exact pricing past one word" `Quick test_exact_pricing_multiword;
    QCheck_alcotest.to_alcotest qcheck_clique_upper_above_optimum;
  ]

let suite = suite @ clique_cover_suite

(* --- exact pricing: set search vs rate branching ---------------------- *)

(* A random 6-10-node physical topology in the paper's area and its two
   SINR models: the kernel-backed one, whose pricer branches on link
   sets, and the naive one, whose pricer branches on every rate. *)
let random_small_world seed =
  let n_nodes = 6 + (seed mod 5) in
  let rng = Wsn_prng.Pcg32.create (Int64.of_int (2_000 + seed)) in
  let cfg =
    { (Wsn_workload.Scenarios.Scale_scenario.config ~n_nodes:30) with Generator.n_nodes }
  in
  let topo = Generator.connected_topology rng cfg in
  (rng, Model.physical topo, Physical_naive.model topo)

(* Weights from {0, 1/36, 1/9, 1/4}: many sets tie exactly, so the
   returned column depends on how ties are broken, not only on the
   optimum. *)
let tie_weights rng n =
  let levels = [| 0.0; 1.0 /. 36.0; 1.0 /. 9.0; 0.25 |] in
  let w = Array.init n (fun _ -> levels.(Wsn_prng.Pcg32.next_below rng 4)) in
  fun l -> w.(l)

let qcheck_set_search_equals_rate_branching =
  QCheck.Test.make ~name:"exact pricer: set search = rate branching under exact ties"
    ~count:1000
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng, fast, naive = random_small_world seed in
      let n_links = Model.n_links fast in
      let weights = tie_weights rng n_links in
      let universe = List.init n_links Fun.id in
      match
        ( Pricing.max_weight_independent fast ~weights ~universe,
          Pricing.max_weight_independent naive ~weights ~universe )
      with
      | Some (a, v), Some (a', v') -> a = a' && Float.equal v v'
      | None, None -> true
      | _ -> false)

(* Column generation on top of either pricer: the same bandwidth and
   schedule shares, bit for bit. *)
let test_exact_colgen_kernel_equals_naive () =
  let hex x = Printf.sprintf "%h" x in
  let compared = ref 0 in
  List.iter
    (fun seed ->
      let model, paths = random_physical_instance seed in
      match paths with
      | [] | [ _ ] -> ()
      | path :: rest ->
        let naive =
          Physical_naive.model (Wsn_conflict.Kernel.topology (Option.get (Model.kernel model)))
        in
        let background = List.map (fun p -> Flow.make ~path:p ~demand_mbps:0.4) rest in
        let run m = Column_gen.available ~pricer:Column_gen.Exact m ~background ~path in
        let slots (r : Column_gen.result) =
          List.map
            (fun (s : Schedule.slot) ->
              Printf.sprintf "%s@%s:%s"
                (String.concat "," (List.map string_of_int s.Schedule.links))
                (String.concat "," (List.map string_of_int s.Schedule.rates))
                (hex s.Schedule.share))
            (Schedule.slots r.Column_gen.schedule)
        in
        (match (run model, run naive) with
         | Some a, Some b ->
           incr compared;
           check Alcotest.string "bandwidth" (hex a.Column_gen.bandwidth_mbps)
             (hex b.Column_gen.bandwidth_mbps);
           check (Alcotest.list Alcotest.string) "schedule" (slots a) (slots b)
         | None, None -> ()
         | _ -> Alcotest.fail "one model found the background infeasible"))
    (List.init 12 Fun.id);
  check Alcotest.bool "compared some instances" true (!compared > 0)

let set_search_suite =
  [
    QCheck_alcotest.to_alcotest qcheck_set_search_equals_rate_branching;
    Alcotest.test_case "exact colgen: kernel = naive, hex floats" `Quick
      test_exact_colgen_kernel_equals_naive;
  ]

let suite = suite @ set_search_suite

(* --- the exact pricer on several domains and past one word ------------ *)

(* Pool workers claim the roots' subtrees in any order, each with its own
   search state, and the results are folded in root order, so the column
   is the one-domain column at any domain count — under exact ties too,
   and with fewer candidates than domains. *)
let qcheck_exact_pricing_domains =
  QCheck.Test.make ~name:"exact pricer identical at 1, 2 and 3 domains" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng, fast, _ = random_small_world seed in
      let n_links = Model.n_links fast in
      let weights = tie_weights rng n_links in
      let universe = List.init n_links Fun.id in
      let at d =
        Wsn_parallel.Pool.set_domains d;
        Fun.protect
          ~finally:(fun () -> Wsn_parallel.Pool.set_domains 1)
          (fun () -> Pricing.max_weight_independent fast ~weights ~universe)
      in
      let one = at 1 in
      one = at 2 && one = at 3)

(* The kernel-backed set search past one word ("exact pricing past one
   word" above covers the declared model's rate search).  Fifteen to
   twenty nodes in a 260 m square give over a hundred links, so the
   candidates' conflict rows and the cover's clique rows span several
   63-bit words; the column must be the naive model's. *)
let test_set_search_multiword () =
  let widest = ref 0 in
  for seed = 1 to 6 do
    let rng = Wsn_prng.Pcg32.create (Int64.of_int seed) in
    let topo =
      Wsn_net.Topology.create
        (Array.init (14 + seed) (fun _ ->
             Wsn_net.Point.make (Wsn_prng.Pcg32.uniform rng 0.0 260.0)
               (Wsn_prng.Pcg32.uniform rng 0.0 260.0)))
    in
    let n = Wsn_net.Topology.n_links topo in
    widest := max !widest n;
    let w = Array.init n (fun _ -> Wsn_prng.Pcg32.uniform rng 0.0 1.0) in
    let price model =
      Pricing.max_weight_independent model ~weights:(fun l -> w.(l)) ~universe:(List.init n Fun.id)
    in
    match (price (Model.physical topo), price (Physical_naive.model topo)) with
    | Some (a, v), Some (a', v') ->
      check Alcotest.bool "same column" true (a = a');
      check Alcotest.string "same value" (Printf.sprintf "%h" v') (Printf.sprintf "%h" v)
    | _ -> Alcotest.fail "a dense square always has a live link"
  done;
  check Alcotest.bool "past two words" true (!widest > 126)

let domains_suite =
  [
    QCheck_alcotest.to_alcotest qcheck_exact_pricing_domains;
    Alcotest.test_case "set search past one word = rate search" `Quick test_set_search_multiword;
  ]

let suite = suite @ domains_suite
