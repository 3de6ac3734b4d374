(* Tests for Wsn_conflict: conflict models, independent-set enumeration,
   cliques — including the paper's Section 3.1 worked examples. *)

module Model = Wsn_conflict.Model
module Independent = Wsn_conflict.Independent
module Clique = Wsn_conflict.Clique
module Physical_naive = Wsn_oracles.Physical_naive
module Maximal_sets = Wsn_oracles.Maximal_sets
module Rate = Wsn_radio.Rate
module Point = Wsn_net.Point
module Topology = Wsn_net.Topology
module Pcg32 = Wsn_prng.Pcg32
module S2 = Wsn_workload.Scenarios.Scenario_ii

let check = Alcotest.check

let r54 = S2.rate_54

let r36 = S2.rate_36

(* --- declared model: the four-link chain --------------------------- *)

let test_s2_alone_rates () =
  check (Alcotest.list Alcotest.int) "both rates, fastest first" [ r54; r36 ]
    (Model.alone_rates S2.model 0);
  check (Alcotest.option Alcotest.int) "best" (Some r54) (Model.alone_best S2.model 0)

let test_s2_interference_table () =
  let i a b = Model.interferes S2.model a b in
  check Alcotest.bool "0-1 interfere" true (i (0, r54) (1, r54));
  check Alcotest.bool "1-3 interfere" true (i (1, r36) (3, r36));
  check Alcotest.bool "0-3 interfere at 54" true (i (0, r54) (3, r54));
  check Alcotest.bool "0-3 free at 36" false (i (0, r36) (3, r54));
  check Alcotest.bool "symmetric" true (i (3, r54) (0, r54));
  check Alcotest.bool "symmetric relief" false (i (3, r54) (0, r36));
  check Alcotest.bool "same link" true (i (2, r54) (2, r36))

let test_s2_feasibility () =
  check Alcotest.bool "singleton" true (Model.feasible S2.model [ (0, r54) ]);
  check Alcotest.bool "0@36 with 3@54" true (Model.feasible S2.model [ (0, r36); (3, r54) ]);
  check Alcotest.bool "0@54 with 3@54" false (Model.feasible S2.model [ (0, r54); (3, r54) ]);
  check Alcotest.bool "0-1 never" false (Model.feasible S2.model [ (0, r36); (1, r36) ])

let test_s2_feasible_validation () =
  Alcotest.check_raises "repeated link" (Invalid_argument "Model.feasible: repeated link")
    (fun () -> ignore (Model.feasible S2.model [ (0, r54); (0, r36) ]));
  Alcotest.check_raises "bad link" (Invalid_argument "Model.feasible: link out of range")
    (fun () -> ignore (Model.feasible S2.model [ (9, r54) ]))

let test_s2_independent_sets () =
  let sets = Independent.enumerate_sets S2.model ~universe:[ 0; 1; 2; 3 ] in
  (* Singletons {0},{1},{2},{3} and the pair {0,3}. *)
  check Alcotest.int "five independent sets" 5 (List.length sets);
  check Alcotest.bool "pair {0,3} present" true (List.mem [ 0; 3 ] sets)

let test_s2_maximal_sets () =
  let maximal = Maximal_sets.of_universe S2.model ~universe:[ 0; 1; 2; 3 ] in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "maximal sets"
    [ [ 0; 3 ]; [ 1 ]; [ 2 ] ]
    (List.sort compare maximal)

let test_s2_pareto_vectors () =
  (* {0,3}: (36,54) wins; (36,36) dominated; 54 on link 0 infeasible. *)
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "pareto of {0,3}"
    [ [ r36; r54 ] ]
    (Independent.pareto_vectors S2.model [ 0; 3 ]);
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "pareto of singleton" [ [ r54 ] ]
    (Independent.pareto_vectors S2.model [ 1 ])

let test_s2_columns () =
  let columns = Independent.columns S2.model ~universe:[ 0; 1; 2; 3 ] in
  check Alcotest.int "four non-dominated columns" 4 (List.length columns);
  let has links mbps =
    List.exists
      (fun (c : Independent.column) -> c.Independent.links = links && c.Independent.mbps = mbps)
      columns
  in
  check Alcotest.bool "{0} at 54" true (has [ 0 ] [| 54.0; 0.0; 0.0; 0.0 |]);
  check Alcotest.bool "{0,3} at (36,54)" true (has [ 0; 3 ] [| 36.0; 0.0; 0.0; 54.0 |])

let test_s2_columns_unfiltered () =
  let columns = Independent.columns ~filter_dominated:false S2.model ~universe:[ 0; 1; 2; 3 ] in
  (* All five sets contribute a Pareto vector. *)
  check Alcotest.int "five raw columns" 5 (List.length columns)

(* --- paper's Section 3.1 clique examples --------------------------- *)

let test_s2_clique_examples () =
  let is_clique c = Clique.is_clique S2.model c in
  check Alcotest.bool "{1@54,2@54,3@54} is a clique" true
    (is_clique [ (0, r54); (1, r54); (2, r54) ]);
  check Alcotest.bool "{1@36,2@36,3@36} is a clique" true
    (is_clique [ (0, r36); (1, r36); (2, r36) ]);
  check Alcotest.bool "all four at 54 is a clique" true
    (is_clique [ (0, r54); (1, r54); (2, r54); (3, r54) ]);
  check Alcotest.bool "{1@36,...,4@54} not a clique (0-3 do not interfere)" false
    (is_clique [ (0, r36); (1, r54); (2, r54); (3, r54) ])

let test_s2_maximality_examples () =
  let universe = [ 0; 1; 2; 3 ] in
  let is_max c = Clique.is_maximal_clique S2.model ~universe c in
  (* {(L1,54),(L2,54),(L3,54)} is a clique but NOT maximal: (L4,54) can
     join. *)
  check Alcotest.bool "54^3 not maximal" false (is_max [ (0, r54); (1, r54); (2, r54) ]);
  (* {(L1,36),(L2,36),(L3,36)} IS maximal: L4 interferes with 2,3 but
     not with L1@36, so it cannot join. *)
  check Alcotest.bool "36^3 maximal" true (is_max [ (0, r36); (1, r36); (2, r36) ]);
  (* Both paper examples of maximal cliques with maximum rates. *)
  check Alcotest.bool "54^4 maximal" true (is_max [ (0, r54); (1, r54); (2, r54); (3, r54) ]);
  check Alcotest.bool "(36,54,54) maximal" true (is_max [ (0, r36); (1, r54); (2, r54) ])

let test_s2_max_rate_cliques () =
  let max_rates = Clique.with_maximum_rates S2.model ~universe:[ 0; 1; 2; 3 ] in
  (* The paper names two: {(L1,54),(L2,54),(L3,54),(L4,54)} and
     {(L1,36),(L2,54),(L3,54)}.  (Cliques within {1,2,3} i.e. links
     2,3,4 at max rates are covered by the all-54 clique.) *)
  check Alcotest.bool "all-54 clique is max-rates" true
    (List.mem [ (0, r54); (1, r54); (2, r54); (3, r54) ] max_rates);
  check Alcotest.bool "(L1@36,L2@54,L3@54) is max-rates" true
    (List.mem [ (0, r36); (1, r54); (2, r54) ] max_rates);
  (* And the non-example: 36^3 is maximal but not max-rates. *)
  check Alcotest.bool "36^3 absent" false (List.mem [ (0, r36); (1, r36); (2, r36) ] max_rates)

let test_s2_maximal_cliques_at_fixed_rates () =
  let at rate_of = Clique.maximal_cliques_at S2.model ~links:[ 0; 1; 2; 3 ] ~rate_of in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "all at 54: one clique" [ [ 0; 1; 2; 3 ] ]
    (at (fun _ -> r54));
  let r2 l = if l = 0 then r36 else r54 in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "R2: two cliques"
    [ [ 0; 1; 2 ]; [ 1; 2; 3 ] ]
    (List.sort compare (at r2))

let test_s2_local_cliques () =
  let rate_of _ = r54 in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "whole chain at 54" [ [ 0; 1; 2; 3 ] ]
    (Clique.local_cliques S2.model ~path_links:[ 0; 1; 2; 3 ] ~rate_of);
  let r2 l = if l = 0 then r36 else r54 in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "R2 windows"
    [ [ 0; 1; 2 ]; [ 1; 2; 3 ] ]
    (Clique.local_cliques S2.model ~path_links:[ 0; 1; 2; 3 ] ~rate_of:r2)

(* --- physical model ------------------------------------------------ *)

let line_topology spacing n =
  Topology.create (Array.init n (fun i -> Point.make (spacing *. float_of_int i) 0.0))

let test_physical_half_duplex () =
  let topo = line_topology 50.0 3 in
  let model = Model.physical topo in
  (* Links 0->1 and 1->2 share node 1: never concurrent. *)
  let l01 =
    match Wsn_graph.Digraph.find_edge (Topology.graph topo) ~src:0 ~dst:1 with
    | Some e -> e.Wsn_graph.Digraph.id
    | None -> Alcotest.fail "missing link"
  in
  let l12 =
    match Wsn_graph.Digraph.find_edge (Topology.graph topo) ~src:1 ~dst:2 with
    | Some e -> e.Wsn_graph.Digraph.id
    | None -> Alcotest.fail "missing link"
  in
  check Alcotest.bool "shared node blocks concurrency" false (Model.independent model [ l01; l12 ]);
  check Alcotest.bool "unique max model" true (Model.has_unique_max model)

let test_physical_far_links_concurrent () =
  (* Two pairs 1000 m apart: fully independent at top rate. *)
  let topo =
    Topology.create
      [|
        Point.make 0.0 0.0; Point.make 50.0 0.0; Point.make 1000.0 0.0; Point.make 1050.0 0.0;
      |]
  in
  let model = Model.physical topo in
  let find s d =
    match Wsn_graph.Digraph.find_edge (Topology.graph topo) ~src:s ~dst:d with
    | Some e -> e.Wsn_graph.Digraph.id
    | None -> Alcotest.fail "missing link"
  in
  let a = find 0 1 and b = find 2 3 in
  (match Model.max_vector model [ a; b ] with
   | Some rates -> check (Alcotest.array Alcotest.int) "both at 54" [| 0; 0 |] rates
   | None -> Alcotest.fail "far links should be independent");
  check Alcotest.bool "feasible at top rates" true (Model.feasible model [ (a, 0); (b, 0) ])

let test_physical_rate_vector_antimonotone () =
  (* Adding a link can only hold or lower every other link's max rate. *)
  let rng = Pcg32.create 21L in
  for _ = 1 to 20 do
    let positions =
      Array.init 8 (fun _ -> Point.make (Pcg32.uniform rng 0.0 400.0) (Pcg32.uniform rng 0.0 400.0))
    in
    let topo = Topology.create positions in
    let model = Model.physical topo in
    let n = Topology.n_links topo in
    if n >= 3 then begin
      let l1 = Pcg32.next_below rng n and l2 = Pcg32.next_below rng n and l3 = Pcg32.next_below rng n in
      if l1 <> l2 && l2 <> l3 && l1 <> l3 then
        match (Model.max_vector model [ l1; l2 ], Model.max_vector model [ l1; l2; l3 ]) with
        | Some small, Some big ->
          (* rate indices: bigger index = slower *)
          if small.(0) > big.(0) || small.(1) > big.(1) then
            Alcotest.fail "adding a link raised a max rate"
        | _, None | None, _ -> ()
    end
  done

let qcheck_independence_antimonotone =
  QCheck.Test.make ~name:"subsets of independent sets are independent" ~count:40
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Pcg32.create (Int64.of_int seed) in
      let positions =
        Array.init 8 (fun _ -> Point.make (Pcg32.uniform rng 0.0 500.0) (Pcg32.uniform rng 0.0 500.0))
      in
      let topo = Topology.create positions in
      let model = Model.physical topo in
      let universe = List.init (Topology.n_links topo) Fun.id in
      let sets = try Independent.enumerate_sets ~max_sets:20_000 model ~universe with Failure _ -> [] in
      List.for_all
        (fun set ->
          match set with
          | [] | [ _ ] -> true
          | _ :: rest -> Model.independent model rest)
        sets)

let qcheck_columns_are_feasible =
  QCheck.Test.make ~name:"every column is a feasible assignment" ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Pcg32.create (Int64.of_int seed) in
      let positions =
        Array.init 7 (fun _ -> Point.make (Pcg32.uniform rng 0.0 400.0) (Pcg32.uniform rng 0.0 400.0))
      in
      let topo = Topology.create positions in
      let model = Model.physical topo in
      let universe = List.init (Topology.n_links topo) Fun.id in
      let columns = try Independent.columns ~max_sets:20_000 model ~universe with Failure _ -> [] in
      List.for_all
        (fun (c : Independent.column) ->
          Model.feasible model (List.combine c.Independent.links c.Independent.rates))
        columns)

let test_enumerate_guard () =
  Alcotest.check_raises "set explosion guard"
    (Failure "Independent.enumerate_sets: too many independent sets") (fun () ->
      (* A model where everything is independent: 2^12 sets exceeds 100. *)
      let free =
        Model.declared ~n_links:12 ~rates:Rate.chain_36_54
          ~alone_rates:(fun _ -> [ r54 ])
          ~interferes:(fun (a, _) (b, _) -> a = b)
      in
      ignore (Independent.enumerate_sets ~max_sets:100 free ~universe:(List.init 12 Fun.id)))

let suite =
  [
    Alcotest.test_case "s2 alone rates" `Quick test_s2_alone_rates;
    Alcotest.test_case "s2 interference table" `Quick test_s2_interference_table;
    Alcotest.test_case "s2 feasibility" `Quick test_s2_feasibility;
    Alcotest.test_case "s2 feasible validation" `Quick test_s2_feasible_validation;
    Alcotest.test_case "s2 independent sets" `Quick test_s2_independent_sets;
    Alcotest.test_case "s2 maximal sets" `Quick test_s2_maximal_sets;
    Alcotest.test_case "s2 pareto vectors" `Quick test_s2_pareto_vectors;
    Alcotest.test_case "s2 columns" `Quick test_s2_columns;
    Alcotest.test_case "s2 columns unfiltered" `Quick test_s2_columns_unfiltered;
    Alcotest.test_case "s2 clique examples (paper 3.1)" `Quick test_s2_clique_examples;
    Alcotest.test_case "s2 maximality examples (paper 3.1)" `Quick test_s2_maximality_examples;
    Alcotest.test_case "s2 max-rate cliques (paper 3.1)" `Quick test_s2_max_rate_cliques;
    Alcotest.test_case "s2 cliques at fixed rates" `Quick test_s2_maximal_cliques_at_fixed_rates;
    Alcotest.test_case "s2 local cliques" `Quick test_s2_local_cliques;
    Alcotest.test_case "physical half duplex" `Quick test_physical_half_duplex;
    Alcotest.test_case "physical far links" `Quick test_physical_far_links_concurrent;
    Alcotest.test_case "physical antimonotone rates" `Quick test_physical_rate_vector_antimonotone;
    QCheck_alcotest.to_alcotest qcheck_independence_antimonotone;
    QCheck_alcotest.to_alcotest qcheck_columns_are_feasible;
    Alcotest.test_case "enumeration guard" `Quick test_enumerate_guard;
  ]


(* --- Proposition 3: the column set spans the feasible region --------- *)

let qcheck_proposition3_equivalence =
  (* The LP over dominance-filtered Pareto columns must equal the LP
     over the raw columns of every independent set — the executable form
     of Proposition 3 (only maximal sets with maximum rate vectors are
     needed). *)
  QCheck.Test.make ~name:"proposition 3: filtered columns lose nothing" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Pcg32.create (Int64.of_int seed) in
      let model = Wsn_experiments.Hypothesis.random_model rng ~n_links:4 in
      let path = [ 0; 1; 2; 3 ] in
      let filtered =
        (Wsn_availbw.Path_bandwidth.path_capacity model ~path)
          .Wsn_availbw.Path_bandwidth.bandwidth_mbps
      in
      let unfiltered =
        match
          Wsn_availbw.Bounds.lower_bound_restricted
            ~keep:(fun _ -> true)
            model ~background:[] ~path
        with
        | Some v -> v
        | None -> nan
      in
      Float.abs (filtered -. unfiltered) < 1e-6)

let prop3_suite = [ QCheck_alcotest.to_alcotest qcheck_proposition3_equivalence ]

let suite = suite @ prop3_suite

(* --- greedy max_vector witness on declared models --------------------- *)

let test_declared_max_vector_witness () =
  (* {0,3}: the witness must be the Pareto vector (36, 54). *)
  (match Model.max_vector S2.model [ 0; 3 ] with
   | Some v -> check (Alcotest.array Alcotest.int) "witness (36,54)" [| r36; r54 |] v
   | None -> Alcotest.fail "independent set");
  check Alcotest.bool "conflicting set refused" true (Model.max_vector S2.model [ 0; 1 ] = None)

let witness_suite = [ Alcotest.test_case "declared max_vector witness" `Quick test_declared_max_vector_witness ]

let suite = suite @ witness_suite

(* --- conflict kernel vs. naive reference ---------------------------- *)

(* The bitset kernel behind [Model.physical] must be behaviourally
   invisible: on the same topology every query answers exactly as the
   from-scratch [Physical_naive.model] oracle — including the floats
   behind the rate decisions, so the comparisons are exact, not
   tolerant. *)

let random_topology rng ~nodes ~side =
  let positions =
    Array.init nodes (fun _ -> Point.make (Pcg32.uniform rng 0.0 side) (Pcg32.uniform rng 0.0 side))
  in
  Topology.create positions

let qcheck_kernel_queries_match_naive =
  QCheck.Test.make ~name:"kernel independent/max_vector/feasible = naive" ~count:40
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Pcg32.create (Int64.of_int seed) in
      let topo = random_topology rng ~nodes:8 ~side:450.0 in
      let fast = Model.physical topo in
      let naive = Physical_naive.model topo in
      let n = Topology.n_links topo in
      if n = 0 then true
      else begin
        let ok = ref true in
        for _ = 1 to 50 do
          let size = 1 + Pcg32.next_below rng (min n 5) in
          let set =
            List.sort_uniq compare (List.init size (fun _ -> Pcg32.next_below rng n))
          in
          if Model.independent fast set <> Model.independent naive set then ok := false;
          if Model.max_vector fast set <> Model.max_vector naive set then ok := false;
          let assignment =
            List.map
              (fun l ->
                match Model.alone_rates naive l with
                | [] -> (l, 0)
                | rs -> (l, List.nth rs (Pcg32.next_below rng (List.length rs))))
              set
          in
          if
            List.for_all (fun (l, _) -> Model.alone_rates naive l <> []) assignment
            && Model.feasible fast assignment <> Model.feasible naive assignment
          then ok := false
        done;
        !ok
      end)

let qcheck_kernel_enumeration_matches_naive =
  QCheck.Test.make ~name:"kernel enumerate/maximal/columns = naive" ~count:25
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Pcg32.create (Int64.of_int seed) in
      let topo = random_topology rng ~nodes:7 ~side:450.0 in
      let fast = Model.physical topo in
      let naive = Physical_naive.model topo in
      let universe = List.init (Topology.n_links topo) Fun.id in
      let catching f = try Ok (f ()) with Failure m -> Error m in
      let eq_columns a b =
        match (a, b) with
        | Ok a, Ok b ->
          List.length a = List.length b
          && List.for_all2
               (fun (x : Independent.column) (y : Independent.column) ->
                 x.Independent.links = y.Independent.links
                 && x.Independent.rates = y.Independent.rates
                 && x.Independent.mbps = y.Independent.mbps)
               a b
        | Error a, Error b -> a = b
        | _ -> false
      in
      catching (fun () -> Independent.enumerate_sets ~max_sets:20_000 fast ~universe)
      = catching (fun () -> Independent.enumerate_sets ~max_sets:20_000 naive ~universe)
      && catching (fun () -> Maximal_sets.of_universe ~max_sets:20_000 fast ~universe)
         = catching (fun () -> Maximal_sets.of_universe ~max_sets:20_000 naive ~universe)
      && eq_columns
           (catching (fun () -> Independent.columns ~max_sets:20_000 fast ~universe))
           (catching (fun () -> Independent.columns ~max_sets:20_000 naive ~universe))
      && catching (fun () -> List.sort compare (Clique.maximal_rate_coupled_cliques fast ~universe))
         = catching (fun () -> List.sort compare (Clique.maximal_rate_coupled_cliques naive ~universe)))

let qcheck_kernel_inc_add_undo =
  QCheck.Test.make ~name:"Kernel.Inc add/undo agrees with whole-set queries" ~count:40
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Pcg32.create (Int64.of_int seed) in
      let topo = random_topology rng ~nodes:8 ~side:450.0 in
      let model = Model.physical topo in
      match Model.kernel model with
      | None -> false
      | Some k ->
        let n = Wsn_conflict.Kernel.n_links k in
        if n = 0 then true
        else begin
          let module Inc = Wsn_conflict.Kernel.Inc in
          let st = Inc.start k in
          let ok = ref true in
          (* A random walk of adds and undos; after every step the
             incremental rates must equal the memoised whole-set answer. *)
          for _ = 1 to 60 do
            (if Pcg32.next_below rng 3 = 0 && Inc.size st > 0 then Inc.undo st
             else
               let l = Pcg32.next_below rng n in
               let before = Inc.members st in
               let added = Inc.add st l in
               let expect = Wsn_conflict.Kernel.max_vector k (before @ [ l ]) in
               if added <> (expect <> None && not (List.mem l before)) then ok := false);
            let members = Inc.members st in
            match Wsn_conflict.Kernel.max_vector k members with
            | None -> if members <> [] then ok := false
            | Some v ->
              List.iteri
                (fun p _ -> if v.(p) <> Inc.max_rate st p then ok := false)
                members
          done;
          !ok
        end)

(* Twelve 55 m links along a line, 300 m apart: far enough that all
   twelve transmit together, close enough that the accumulated
   interference slows all but the last from 54 to 36 Mbit/s.  Twelve members outgrow the initial
   capacity of a [Kernel.Inc] state, so its arrays must grow, in [add]
   and in [add_sorted]'s reload from a warm cache. *)
let test_kernel_inc_grows () =
  let module Kernel = Wsn_conflict.Kernel in
  let module Inc = Kernel.Inc in
  let n_pairs = 12 in
  let topo =
    Topology.create
      (Array.init (2 * n_pairs) (fun i ->
           Point.make ((300.0 *. float_of_int (i / 2)) +. (55.0 *. float_of_int (i mod 2))) 0.0))
  in
  let link s d =
    match Wsn_graph.Digraph.find_edge (Topology.graph topo) ~src:s ~dst:d with
    | Some e -> e.Wsn_graph.Digraph.id
    | None -> Alcotest.fail "missing link"
  in
  let ascending = List.sort compare (List.init n_pairs (fun p -> link (2 * p) (2 * p + 1))) in
  let kernel () = Option.get (Model.kernel (Model.physical topo)) in
  (* Expected answers from a kernel of their own, so no memo entry the
     states below write can reach them. *)
  let reference = kernel () in
  let expect members =
    match Kernel.max_vector reference members with
    | Some v -> (members, Array.to_list v)
    | None -> Alcotest.fail "set must be feasible"
  in
  let snapshot st = (Inc.members st, List.init (Inc.size st) (Inc.max_rate st)) in
  let state = Alcotest.(pair (list int) (list int)) in
  let full = expect ascending in
  check Alcotest.bool "some rate below the fastest" true (List.exists (fun r -> r > 0) (snd full));
  let grow k name add order =
    let st = Inc.start k in
    List.iter
      (fun l ->
        check Alcotest.bool (name ^ " accepted") true (add st l);
        check state (name ^ " = max_vector") (expect (Inc.members st)) (snapshot st))
      order
  in
  (* [add] in descending order: insertion order differs from the
     ascending order the whole-set query sums in. *)
  grow (kernel ()) "add" Inc.add (List.rev ascending);
  (* [add_sorted] on a cold kernel misses and fills the memo at every
     prefix; a second state on the same kernel then reloads every prefix
     from it. *)
  let k = kernel () in
  grow k "cold add_sorted" Inc.add_sorted ascending;
  grow k "warm add_sorted" Inc.add_sorted ascending;
  (* An add followed by undo restores the state: at every size, across
     the growth, a state that also adds and undoes the next link gives
     the same members, the same rates, and the same verdicts on every
     later link as one that does not. *)
  let plain = Inc.start (kernel ()) and probed = Inc.start (kernel ()) in
  List.iteri
    (fun i l ->
      (match List.nth_opt ascending (i + 1) with
       | Some next ->
         let before = snapshot probed in
         check Alcotest.bool "probe accepted" true (Inc.add probed next);
         Inc.undo probed;
         check state "undo restores" before (snapshot probed)
       | None -> ());
      check Alcotest.bool "same verdict" (Inc.add plain l) (Inc.add probed l);
      check state "same state" (snapshot plain) (snapshot probed))
    ascending;
  check state "undo-probed state = max_vector" full (snapshot probed)

let kernel_suite =
  [
    QCheck_alcotest.to_alcotest qcheck_kernel_queries_match_naive;
    QCheck_alcotest.to_alcotest qcheck_kernel_enumeration_matches_naive;
    QCheck_alcotest.to_alcotest qcheck_kernel_inc_add_undo;
    Alcotest.test_case "Kernel.Inc grows past its initial capacity" `Quick test_kernel_inc_grows;
  ]

let suite = suite @ kernel_suite

(* --- hard conflicts ---------------------------------------------------- *)

module Kernel = Wsn_conflict.Kernel

(* Every ordered pair of [n] links, in a random order. *)
let shuffled_pairs rng n =
  let pairs = Array.of_list (List.concat_map (fun i -> List.init n (fun j -> (i, j))) (List.init n Fun.id)) in
  for x = Array.length pairs - 1 downto 1 do
    let y = Pcg32.next_below rng (x + 1) in
    let t = pairs.(x) in
    pairs.(x) <- pairs.(y);
    pairs.(y) <- t
  done;
  Array.to_list pairs

(* [v.(i).(j)] for [i <= j]: the hard-conflict verdicts of a kernel of
   their own that asks each unordered pair once, so no answer comes from
   its memo. *)
let fresh_verdicts topo =
  let k = Option.get (Model.kernel (Model.physical topo)) in
  let n = Topology.n_links topo in
  Array.init n (fun i -> Array.init n (fun j -> j >= i && Kernel.hard_conflict k i j))

(* On SINR models a hard conflict is exactly interference at the two
   slowest alone rates (interference power is rate-independent and
   slower rates need less SNR), both through the kernel and through the
   naive model's every-rate-pair test. *)
let qcheck_hard_conflict_is_slowest_rate_interference =
  QCheck.Test.make ~name:"Kernel.hard_conflict = interferes at the slowest rates" ~count:40
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Pcg32.create (Int64.of_int seed) in
      let topo = random_topology rng ~nodes:8 ~side:450.0 in
      let fast = Model.physical topo and naive = Physical_naive.model topo in
      let live =
        Array.of_list
          (List.filter
             (fun l -> Model.alone_rates naive l <> [])
             (List.init (Topology.n_links topo) Fun.id))
      in
      let slowest l = List.hd (List.rev (Model.alone_rates naive l)) in
      match Model.kernel fast with
      | None -> false
      | Some _ when Array.length live = 0 -> true
      | Some k ->
        List.for_all
          (fun _ ->
            let i = live.(Pcg32.next_below rng (Array.length live)) in
            let j = live.(Pcg32.next_below rng (Array.length live)) in
            let hard = Kernel.hard_conflict k i j in
            hard = Model.interferes naive (i, slowest i) (j, slowest j)
            && hard = Model.interferes fast (i, slowest i) (j, slowest j)
            && hard = Model.hard_conflict naive i j
            && hard = Model.hard_conflict fast i j
            && hard = Kernel.hard_conflict k j i)
          (List.init 60 Fun.id)
        (* The memo: every ordered pair, asked of the kernel just warmed
           in a shuffled order, answers as a fresh kernel that computes
           each unordered pair once. *)
        && begin
          let expected = fresh_verdicts topo in
          List.for_all
            (fun (i, j) -> Kernel.hard_conflict k i j = expected.(min i j).(max i j))
            (shuffled_pairs rng (Topology.n_links topo))
        end)

let test_declared_hard_conflict () =
  (* Links 0 and 1 clash only when both run at 36 — a declared predicate
     need not be monotone in rate, so the slowest pair alone does not
     make a hard conflict.  Links 0 and 2 clash at every rate pair;
     link 3 is dead. *)
  let model =
    Model.declared ~n_links:4 ~rates:Rate.chain_36_54
      ~alone_rates:(fun l -> if l = 3 then [] else [ r54; r36 ])
      ~interferes:(fun (l1, r1) (l2, r2) ->
        match (min l1 l2, max l1 l2) with
        | 0, 1 -> r1 = r36 && r2 = r36
        | 0, 2 -> true
        | a, b -> a = b)
  in
  check Alcotest.bool "clash at 36/36 only" false (Model.hard_conflict model 0 1);
  check Alcotest.bool "clash at every rate pair" true (Model.hard_conflict model 0 2);
  check Alcotest.bool "symmetric" true (Model.hard_conflict model 2 0);
  check Alcotest.bool "no clash" false (Model.hard_conflict model 1 2);
  check Alcotest.bool "a link with itself" true (Model.hard_conflict model 1 1);
  check Alcotest.bool "a dead link, vacuously" true (Model.hard_conflict model 3 1)

module Registry = Wsn_telemetry.Registry

(* [f ()] and the amount counter [name] grew during it. *)
let counting name f =
  let c = Registry.counter name in
  let was = Registry.is_enabled () in
  Registry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Registry.set_enabled was)
    (fun () ->
      let before = Registry.counter_value c in
      let r = f () in
      (r, Registry.counter_value c - before))

(* Hard-conflict verdicts are pure, so a kernel computes each one once:
   a second pass over every pair makes no rate evaluation. *)
let test_hard_conflict_memo_counts () =
  let rng = Pcg32.create 7L in
  let topo = random_topology rng ~nodes:10 ~side:400.0 in
  let k = Option.get (Model.kernel (Model.physical topo)) in
  let pairs = shuffled_pairs rng (Topology.n_links topo) in
  let pass () = List.map (fun (i, j) -> Kernel.hard_conflict k i j) pairs in
  let first, cold = counting "kernel.rate_evals" pass in
  let second, warm = counting "kernel.rate_evals" pass in
  check Alcotest.bool "the first pass evaluates rates" true (cold > 0);
  check Alcotest.int "the second pass evaluates none" 0 warm;
  check Alcotest.(list bool) "same verdicts" first second

let hard_conflict_suite =
  [
    QCheck_alcotest.to_alcotest qcheck_hard_conflict_is_slowest_rate_interference;
    Alcotest.test_case "declared hard conflicts" `Quick test_declared_hard_conflict;
    Alcotest.test_case "hard_conflict memo: a second pass evaluates no rate" `Quick
      test_hard_conflict_memo_counts;
  ]

let suite = suite @ hard_conflict_suite

(* --- the Inc undo stack ------------------------------------------------ *)

module Inc = Kernel.Inc

let inc_snapshot st = (Inc.members st, List.init (Inc.size st) (Inc.max_rate st))

(* Whether the state's members and rates are the whole-set answer of
   [reference], a kernel no state writes to. *)
let agrees_with reference st =
  let members, rates = inc_snapshot st in
  match Kernel.max_vector reference members with
  | Some v -> Array.to_list v = rates
  | None -> members = []

let rec ascending = function a :: (b :: _ as rest) -> a < b && ascending rest | _ -> true

(* A random walk of [add], [add_sorted] (whenever the members ascend and
   the link tops them, so the ascending discipline holds) and [undo]:
   every undo restores the snapshot taken before its add, every
   rejection leaves the state as it was, and every accepted set carries
   the whole-set rates.  Twenty-four nodes leave room for sets past the
   stack's initial eight frames. *)
let qcheck_inc_undo_stack =
  QCheck.Test.make ~name:"Kernel.Inc undo restores the pre-add state (add, add_sorted, undo)"
    ~count:40
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Pcg32.create (Int64.of_int seed) in
      let topo = random_topology rng ~nodes:24 ~side:600.0 in
      let k = Option.get (Model.kernel (Model.physical topo)) in
      let reference = Option.get (Model.kernel (Model.physical topo)) in
      let n = Kernel.n_links k in
      n = 0
      ||
      let st = Inc.start k in
      let saved = Stack.create () in
      let ok = ref true in
      for _ = 1 to 200 do
        if Pcg32.next_below rng 4 = 0 && Inc.size st > 0 then begin
          Inc.undo st;
          if inc_snapshot st <> Stack.pop saved then ok := false
        end
        else begin
          let l = Pcg32.next_below rng n in
          let before = inc_snapshot st in
          let members = fst before in
          let sorted =
            ascending members && List.for_all (fun m -> m < l) members
            && Pcg32.next_below rng 2 = 0
          in
          let added = (if sorted then Inc.add_sorted else Inc.add) st l in
          let expect =
            (not (List.mem l members)) && Kernel.max_vector reference (members @ [ l ]) <> None
          in
          if added <> expect then ok := false;
          if added then Stack.push before saved
          else if inc_snapshot st <> before then ok := false
        end;
        if not (agrees_with reference st) then ok := false
      done;
      !ok)

(* Links by endpoints in a topology built from points on a line. *)
let line_links xs pairs =
  let topo = Topology.create (Array.of_list (List.map (fun x -> Point.make x 0.0) xs)) in
  let link (s, d) =
    match Wsn_graph.Digraph.find_edge (Topology.graph topo) ~src:s ~dst:d with
    | Some e -> e.Wsn_graph.Digraph.id
    | None -> Alcotest.fail "missing link"
  in
  (topo, List.map link pairs)

(* Links A (0 → 55 m) and B (450 → 395 m), then C (330 → 275 m), whose
   transmitter sits 275 m from A's receiver and 65 m from B's: C itself
   clears a rate, the recheck slows A first, then finds B starved — the
   rejection must put A's sum and rate back.  A state that never tried
   C then agrees with this one on every later add.  Separately, twelve
   links along a line (as in the growth test above) take the stack past
   its initial capacity with frames live, and unwinding it restores
   every snapshot. *)
let test_inc_undo_stack_restore_and_growth () =
  let state = Alcotest.(pair (list int) (list int)) in
  let topo, abcd =
    line_links [ 0.0; 55.0; 450.0; 395.0; 330.0; 275.0; 2700.0; 2755.0 ]
      [ (0, 1); (2, 3); (4, 5); (6, 7) ]
  in
  let a, b, c, d =
    match abcd with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false
  in
  let reference = Option.get (Model.kernel (Model.physical topo)) in
  let rate_of_a set =
    match Kernel.max_vector reference set with
    | Some v -> v.(0)
    | None -> Alcotest.fail "set must be feasible"
  in
  check Alcotest.bool "C slows A" true (rate_of_a [ a; c ] > rate_of_a [ a; b ]);
  check Alcotest.bool "A, B and C are not feasible" true
    (Kernel.max_vector reference [ a; b; c ] = None);
  let k = Option.get (Model.kernel (Model.physical topo)) in
  let tried = Inc.start k and plain = Inc.start k in
  List.iter (fun l -> ignore (Inc.add tried l); ignore (Inc.add plain l)) [ a; b ];
  let before = inc_snapshot tried in
  let rejected, rechecks = counting "kernel.rate_rechecks" (fun () -> not (Inc.add tried c)) in
  check Alcotest.bool "C rejected" true rejected;
  check Alcotest.int "rejected at B, after A's recheck" 2 rechecks;
  check state "the rejection restores A" before (inc_snapshot tried);
  check Alcotest.bool "same verdict on D" (Inc.add plain d) (Inc.add tried d);
  check state "same state after D" (inc_snapshot plain) (inc_snapshot tried);
  check Alcotest.bool "= max_vector" true (agrees_with reference tried);
  (* Growth: add the line's links (alternating [add] and [add_sorted]),
     unwind to two members, grow again with [add] alone (an
     [add_sorted] cache hit would rebuild every sum and hide a bad
     restore), unwind fully. *)
  let n_pairs = 12 in
  let xs = List.init (2 * n_pairs) (fun i -> (300.0 *. float_of_int (i / 2)) +. (55.0 *. float_of_int (i mod 2))) in
  let topo, links = line_links xs (List.init n_pairs (fun p -> (2 * p, (2 * p) + 1))) in
  let links = List.sort compare links in
  let reference = Option.get (Model.kernel (Model.physical topo)) in
  let st = Inc.start (Option.get (Model.kernel (Model.physical topo))) in
  let saved = Stack.create () in
  let grow adder =
    List.iteri
      (fun i l ->
        if not (List.mem l (Inc.members st)) then begin
          let before = inc_snapshot st in
          check Alcotest.bool "accepted" true (adder i st l);
          Stack.push before saved;
          check Alcotest.bool "grown state = max_vector" true (agrees_with reference st)
        end)
      links
  in
  let unwind_to size =
    while Inc.size st > size do
      Inc.undo st;
      check state "undo restores the pre-add state" (Stack.pop saved) (inc_snapshot st)
    done
  in
  grow (fun i -> if i mod 2 = 0 then Inc.add else Inc.add_sorted);
  check Alcotest.int "all twelve members" n_pairs (Inc.size st);
  check Alcotest.bool "rates fell as the set grew" true
    (List.exists (fun r -> r > 0) (snd (inc_snapshot st)));
  unwind_to 2;
  grow (fun _ -> Inc.add);
  unwind_to 0

let inc_stack_suite =
  [
    QCheck_alcotest.to_alcotest qcheck_inc_undo_stack;
    Alcotest.test_case "Kernel.Inc undo stack: partway rejection, growth" `Quick
      test_inc_undo_stack_restore_and_growth;
  ]

let suite = suite @ inc_stack_suite

(* --- on worker domains ------------------------------------------------- *)

(* Two fork views of one kernel share its hard-conflict memo.  Filled
   concurrently from pool workers, each in its own shuffled order, both
   views — and then the parent — answer every pair as a fresh kernel. *)
let test_hard_conflict_memo_forks () =
  List.iter
    (fun seed ->
      let rng = Pcg32.create (Int64.of_int seed) in
      let topo = random_topology rng ~nodes:12 ~side:400.0 in
      let expected = fresh_verdicts topo in
      let n = Topology.n_links topo in
      let k = Option.get (Model.kernel (Model.physical topo)) in
      let orders = Array.init 2 (fun _ -> shuffled_pairs rng n) in
      let answers =
        Wsn_parallel.Pool.with_pool ~domains:2 (fun pool ->
            Wsn_parallel.Pool.map pool
              (fun order ->
                let view = Kernel.fork k in
                List.map (fun (i, j) -> ((i, j), Kernel.hard_conflict view i j)) order)
              orders)
      in
      let agree =
        List.for_all (fun ((i, j), v) -> v = expected.(min i j).(max i j))
      in
      check Alcotest.bool "first view" true (agree answers.(0));
      check Alcotest.bool "second view" true (agree answers.(1));
      check Alcotest.bool "parent" true
        (agree (List.map (fun (i, j) -> ((i, j), Kernel.hard_conflict k i j)) orders.(0))))
    [ 1; 2; 3; 4 ]

let domain_suite =
  [ Alcotest.test_case "hard_conflict memo shared by fork views on workers" `Quick test_hard_conflict_memo_forks ]
