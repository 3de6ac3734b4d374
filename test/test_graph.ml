(* Tests for Wsn_graph: digraph, priority queue, Dijkstra (with a
   Bellman–Ford oracle), Yen, components. *)

module Digraph = Wsn_graph.Digraph
module Pqueue = Wsn_graph.Pqueue
module Path = Wsn_graph.Path
module Dijkstra = Wsn_graph.Dijkstra
module Bellman_ford = Wsn_oracles.Bellman_ford
module Yen = Wsn_graph.Yen
module Components = Wsn_graph.Components

let check = Alcotest.check

let float_tol = Alcotest.float 1e-9

let test_digraph_basics () =
  let g = Digraph.create 3 in
  let e01 = Digraph.add_edge g ~src:0 ~dst:1 in
  let e12 = Digraph.add_edge g ~src:1 ~dst:2 in
  let e01b = Digraph.add_edge g ~src:0 ~dst:1 in
  check Alcotest.int "n_nodes" 3 (Digraph.n_nodes g);
  check Alcotest.int "n_edges" 3 (Digraph.n_edges g);
  check Alcotest.int "ids sequential" 2 e01b.Digraph.id;
  check Alcotest.int "out degree" 2 (List.length (Digraph.out_edges g 0));
  check Alcotest.int "in degree" 2 (List.length (Digraph.in_edges g 1));
  check Alcotest.int "edge lookup" e12.Digraph.id (Digraph.edge g e12.Digraph.id).Digraph.id;
  check Alcotest.bool "find_edge hit" true (Digraph.find_edge g ~src:0 ~dst:1 <> None);
  check Alcotest.bool "find_edge miss" true (Digraph.find_edge g ~src:2 ~dst:0 = None);
  check Alcotest.int "touching" 3 (List.length (Digraph.touching g 1));
  ignore e01

let test_digraph_validation () =
  let g = Digraph.create 2 in
  Alcotest.check_raises "self loop" (Invalid_argument "Digraph.add_edge: self-loop") (fun () ->
      ignore (Digraph.add_edge g ~src:1 ~dst:1));
  Alcotest.check_raises "range" (Invalid_argument "Digraph.add_edge: node 5 out of range")
    (fun () -> ignore (Digraph.add_edge g ~src:5 ~dst:0))

let test_pqueue_order () =
  let q = Pqueue.create () in
  List.iter (fun (k, v) -> Pqueue.push q k v) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  check Alcotest.int "size" 3 (Pqueue.size q);
  check (Alcotest.option (Alcotest.pair float_tol Alcotest.string)) "peek" (Some (1.0, "a"))
    (Pqueue.peek_min q);
  let order = List.init 3 (fun _ -> match Pqueue.pop_min q with Some (_, v) -> v | None -> "?") in
  check (Alcotest.list Alcotest.string) "sorted pops" [ "a"; "b"; "c" ] order;
  check Alcotest.bool "empty" true (Pqueue.is_empty q)

let qcheck_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in key order" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 50) (float_range 0.0 100.0))
    (fun keys ->
      let q = Pqueue.create () in
      List.iter (fun k -> Pqueue.push q k k) keys;
      let rec drain acc =
        match Pqueue.pop_min q with Some (k, _) -> drain (k :: acc) | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort compare keys)

let diamond () =
  (* 0 -> 1 -> 3 and 0 -> 2 -> 3, plus direct 0 -> 3. *)
  let g = Digraph.create 4 in
  let e01 = Digraph.add_edge g ~src:0 ~dst:1 in
  let e13 = Digraph.add_edge g ~src:1 ~dst:3 in
  let e02 = Digraph.add_edge g ~src:0 ~dst:2 in
  let e23 = Digraph.add_edge g ~src:2 ~dst:3 in
  let e03 = Digraph.add_edge g ~src:0 ~dst:3 in
  (g, e01, e13, e02, e23, e03)

let test_dijkstra_diamond () =
  let g, e01, e13, _, _, e03 = diamond () in
  let weight e =
    if e.Digraph.id = e03.Digraph.id then 5.0
    else if e.Digraph.id = e01.Digraph.id || e.Digraph.id = e13.Digraph.id then 1.0
    else 3.0
  in
  match Dijkstra.shortest_path g ~weight ~source:0 ~target:3 with
  | Some p ->
    check (Alcotest.list Alcotest.int) "path nodes" [ 0; 1; 3 ] (Path.nodes p);
    check float_tol "distance" 2.0 (Dijkstra.distance g ~weight ~source:0 ~target:3)
  | None -> Alcotest.fail "expected a path"

let test_dijkstra_unreachable () =
  let g = Digraph.create 3 in
  let _ = Digraph.add_edge g ~src:0 ~dst:1 in
  check (Alcotest.option Alcotest.reject) "unreachable" None
    (Dijkstra.shortest_path g ~weight:(fun _ -> 1.0) ~source:0 ~target:2);
  check Alcotest.bool "distance infinite" true
    (Dijkstra.distance g ~weight:(fun _ -> 1.0) ~source:0 ~target:2 = infinity)

let test_dijkstra_infinite_weight_excludes () =
  let g = Digraph.create 2 in
  let _ = Digraph.add_edge g ~src:0 ~dst:1 in
  check Alcotest.bool "infinite weight excludes edge" true
    (Dijkstra.shortest_path g ~weight:(fun _ -> infinity) ~source:0 ~target:1 = None)

let random_graph rng ~n ~m =
  let g = Digraph.create n in
  let weights = Hashtbl.create m in
  for _ = 1 to m do
    let src = Wsn_prng.Pcg32.next_below rng n in
    let dst = Wsn_prng.Pcg32.next_below rng n in
    if src <> dst then begin
      let e = Digraph.add_edge g ~src ~dst in
      Hashtbl.replace weights e.Digraph.id (Wsn_prng.Pcg32.uniform rng 0.1 10.0)
    end
  done;
  (g, fun e -> Hashtbl.find weights e.Digraph.id)

let qcheck_dijkstra_vs_bellman_ford =
  QCheck.Test.make ~name:"dijkstra = bellman-ford on random graphs" ~count:100
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Wsn_prng.Pcg32.create (Int64.of_int seed) in
      let g, weight = random_graph rng ~n:12 ~m:30 in
      let d = Dijkstra.tree g ~weight ~source:0 in
      match Bellman_ford.distances g ~weight ~source:0 with
      | Bellman_ford.Negative_cycle -> false
      | Bellman_ford.Distances bf ->
        Array.for_all2
          (fun a b -> (a = infinity && b = infinity) || Float.abs (a -. b) < 1e-6)
          d.Dijkstra.dist bf)

let qcheck_dijkstra_tree_paths_consistent =
  QCheck.Test.make ~name:"tree path cost equals reported distance" ~count:100
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Wsn_prng.Pcg32.create (Int64.of_int seed) in
      let g, weight = random_graph rng ~n:10 ~m:25 in
      let t = Dijkstra.tree g ~weight ~source:0 in
      List.for_all
        (fun v ->
          match Dijkstra.path_of_tree t ~target:v with
          | None -> t.Dijkstra.dist.(v) = infinity
          | Some p ->
            Path.is_chain p
            && Float.abs (Path.cost weight p -. t.Dijkstra.dist.(v)) < 1e-6)
        (List.init 10 Fun.id))

let test_yen_diamond () =
  let g, e01, e13, _, _, e03 = diamond () in
  let weight e =
    if e.Digraph.id = e03.Digraph.id then 5.0
    else if e.Digraph.id = e01.Digraph.id || e.Digraph.id = e13.Digraph.id then 1.0
    else 3.0
  in
  let paths = Yen.k_shortest_paths g ~weight ~source:0 ~target:3 ~k:5 in
  check Alcotest.int "three simple paths" 3 (List.length paths);
  let costs = List.map (Path.cost weight) paths in
  check (Alcotest.list float_tol) "sorted costs" [ 2.0; 5.0; 6.0 ] costs;
  List.iter (fun p -> check Alcotest.bool "simple" true (Path.is_simple p)) paths

let qcheck_yen_properties =
  QCheck.Test.make ~name:"yen paths are simple, sorted, distinct" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Wsn_prng.Pcg32.create (Int64.of_int seed) in
      let g, weight = random_graph rng ~n:8 ~m:20 in
      let paths = Yen.k_shortest_paths g ~weight ~source:0 ~target:7 ~k:4 in
      let costs = List.map (Path.cost weight) paths in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && sorted rest
        | _ -> true
      in
      List.for_all Path.is_simple paths
      && sorted costs
      && List.length (List.sort_uniq compare (List.map Path.edge_ids paths)) = List.length paths
      && List.for_all
           (fun p -> Path.source p = Some 0 && Path.target p = Some 7)
           paths)

let test_path_utilities () =
  let g, e01, e13, _, _, _ = diamond () in
  ignore g;
  let p = [ e01; e13 ] in
  check Alcotest.bool "chain" true (Path.is_chain p);
  check Alcotest.bool "simple" true (Path.is_simple p);
  check Alcotest.int "length" 2 (Path.length p);
  check (Alcotest.option Alcotest.int) "source" (Some 0) (Path.source p);
  check (Alcotest.option Alcotest.int) "target" (Some 3) (Path.target p);
  check Alcotest.bool "mem_edge" true (Path.mem_edge p e01.Digraph.id);
  check Alcotest.bool "broken chain" false (Path.is_chain [ e13; e01 ])

let test_components () =
  let g = Digraph.create 5 in
  let _ = Digraph.add_edge g ~src:0 ~dst:1 in
  let _ = Digraph.add_edge g ~src:3 ~dst:2 in
  check Alcotest.int "three components" 3 (Components.count g);
  check Alcotest.bool "same component undirected" true (Components.same_component g 2 3);
  check Alcotest.bool "not connected" false (Components.is_connected g);
  let _ = Digraph.add_edge g ~src:1 ~dst:2 in
  let _ = Digraph.add_edge g ~src:4 ~dst:0 in
  check Alcotest.bool "now connected" true (Components.is_connected g)

let suite =
  [
    Alcotest.test_case "digraph basics" `Quick test_digraph_basics;
    Alcotest.test_case "digraph validation" `Quick test_digraph_validation;
    Alcotest.test_case "pqueue order" `Quick test_pqueue_order;
    QCheck_alcotest.to_alcotest qcheck_pqueue_sorted;
    Alcotest.test_case "dijkstra diamond" `Quick test_dijkstra_diamond;
    Alcotest.test_case "dijkstra unreachable" `Quick test_dijkstra_unreachable;
    Alcotest.test_case "dijkstra infinite weight" `Quick test_dijkstra_infinite_weight_excludes;
    QCheck_alcotest.to_alcotest qcheck_dijkstra_vs_bellman_ford;
    QCheck_alcotest.to_alcotest qcheck_dijkstra_tree_paths_consistent;
    Alcotest.test_case "yen diamond" `Quick test_yen_diamond;
    QCheck_alcotest.to_alcotest qcheck_yen_properties;
    Alcotest.test_case "path utilities" `Quick test_path_utilities;
    Alcotest.test_case "components" `Quick test_components;
  ]

(* --- Floyd–Warshall --------------------------------------------------- *)

module Floyd_warshall = Wsn_oracles.Floyd_warshall

let test_floyd_warshall_diamond () =
  let g, e01, e13, _, _, e03 = diamond () in
  let weight e =
    if e.Digraph.id = e03.Digraph.id then 5.0
    else if e.Digraph.id = e01.Digraph.id || e.Digraph.id = e13.Digraph.id then 1.0
    else 3.0
  in
  let d = Floyd_warshall.distances g ~weight in
  check float_tol "0 to 3" 2.0 d.(0).(3);
  check float_tol "diagonal" 0.0 d.(2).(2);
  check Alcotest.bool "no back path" true (d.(3).(0) = infinity);
  check float_tol "diameter" 3.0 (Floyd_warshall.diameter g ~weight);
  check float_tol "eccentricity of 0" 3.0 (Floyd_warshall.eccentricity g ~weight 0)

let qcheck_floyd_warshall_vs_dijkstra =
  QCheck.Test.make ~name:"floyd-warshall = dijkstra from every source" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Wsn_prng.Pcg32.create (Int64.of_int seed) in
      let g, weight = random_graph rng ~n:9 ~m:22 in
      let fw = Floyd_warshall.distances g ~weight in
      List.for_all
        (fun src ->
          let t = Dijkstra.tree g ~weight ~source:src in
          Array.for_all2
            (fun a b -> (a = infinity && b = infinity) || Float.abs (a -. b) < 1e-6)
            fw.(src) t.Dijkstra.dist)
        (List.init 9 Fun.id))

let fw_suite =
  [
    Alcotest.test_case "floyd-warshall diamond" `Quick test_floyd_warshall_diamond;
    QCheck_alcotest.to_alcotest qcheck_floyd_warshall_vs_dijkstra;
  ]

let suite = suite @ fw_suite

(* --- misc coverage ----------------------------------------------------- *)

let test_yen_edge_cases () =
  let g, _, _, _, _, _ = diamond () in
  check Alcotest.int "k=0" 0 (List.length (Yen.k_shortest_paths g ~weight:(fun _ -> 1.0) ~source:0 ~target:3 ~k:0));
  Alcotest.check_raises "negative k" (Invalid_argument "Yen.k_shortest_paths: negative k")
    (fun () -> ignore (Yen.k_shortest_paths g ~weight:(fun _ -> 1.0) ~source:0 ~target:3 ~k:(-1)));
  check Alcotest.int "unreachable target" 0
    (List.length (Yen.k_shortest_paths g ~weight:(fun _ -> 1.0) ~source:3 ~target:0 ~k:3))

let test_path_pp () =
  let g, e01, e13, _, _, _ = diamond () in
  ignore g;
  check Alcotest.string "pp chain" "0 -> 1 -> 3" (Format.asprintf "%a" Path.pp [ e01; e13 ]);
  check Alcotest.string "pp empty" "<empty>" (Format.asprintf "%a" Path.pp [])

let misc_suite =
  [
    Alcotest.test_case "yen edge cases" `Quick test_yen_edge_cases;
    Alcotest.test_case "path pp" `Quick test_path_pp;
  ]

let suite = suite @ misc_suite
