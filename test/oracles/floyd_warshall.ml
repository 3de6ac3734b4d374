module Digraph = Wsn_graph.Digraph

let distances g ~weight =
  let n = Digraph.n_nodes g in
  let d = Array.init n (fun i -> Array.init n (fun j -> if i = j then 0.0 else infinity)) in
  List.iter
    (fun e ->
      let w = weight e in
      if w < d.(e.Digraph.src).(e.Digraph.dst) then d.(e.Digraph.src).(e.Digraph.dst) <- w)
    (Digraph.edges g);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if d.(i).(k) < infinity then
        for j = 0 to n - 1 do
          let via = d.(i).(k) +. d.(k).(j) in
          if via < d.(i).(j) then d.(i).(j) <- via
        done
    done
  done;
  d

let finite_max acc x = if x < infinity && x > acc then x else acc

let diameter g ~weight =
  let d = distances g ~weight in
  Array.fold_left (fun acc row -> Array.fold_left finite_max acc row) 0.0 d

let eccentricity g ~weight v =
  if v < 0 || v >= Digraph.n_nodes g then invalid_arg "Floyd_warshall.eccentricity: node out of range";
  let d = distances g ~weight in
  Array.fold_left finite_max 0.0 d.(v)
