(* A component identifier in [0 .. count-1] per node; edges are
   treated as undirected. *)
let component_ids g =
  let n = Digraph.n_nodes g in
  let ids = Array.make n (-1) in
  let next = ref 0 in
  let rec bfs frontier id =
    match frontier with
    | [] -> ()
    | v :: rest ->
      let fresh =
        List.filter_map
          (fun e ->
            let u = if e.Digraph.src = v then e.Digraph.dst else e.Digraph.src in
            if ids.(u) = -1 then begin
              ids.(u) <- id;
              Some u
            end
            else None)
          (Digraph.out_edges g v @ Digraph.in_edges g v)
      in
      bfs (fresh @ rest) id
  in
  for v = 0 to n - 1 do
    if ids.(v) = -1 then begin
      ids.(v) <- !next;
      bfs [ v ] !next;
      incr next
    end
  done;
  ids

let count g =
  let ids = component_ids g in
  Array.fold_left (fun acc id -> max acc (id + 1)) 0 ids

let is_connected g = count g <= 1

let same_component g u v =
  let ids = component_ids g in
  if u < 0 || u >= Array.length ids || v < 0 || v >= Array.length ids then
    invalid_arg "Components.same_component: node out of range";
  ids.(u) = ids.(v)
