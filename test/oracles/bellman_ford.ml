module Digraph = Wsn_graph.Digraph

type result =
  | Distances of float array
  | Negative_cycle

let distances g ~weight ~source =
  let n = Digraph.n_nodes g in
  if source < 0 || source >= n then invalid_arg "Bellman_ford.distances: source out of range";
  let dist = Array.make n infinity in
  dist.(source) <- 0.0;
  let all_edges = Digraph.edges g in
  let relax_once () =
    let changed = ref false in
    List.iter
      (fun e ->
        let w = weight e in
        if w < infinity && dist.(e.Digraph.src) < infinity then begin
          let nd = dist.(e.Digraph.src) +. w in
          if nd < dist.(e.Digraph.dst) then begin
            dist.(e.Digraph.dst) <- nd;
            changed := true
          end
        end)
      all_edges;
    !changed
  in
  let rec rounds k = if k > 0 && relax_once () then rounds (k - 1) in
  rounds (max (n - 1) 0);
  if relax_once () then Negative_cycle else Distances dist
