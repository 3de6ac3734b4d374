type link_obs = { rate_mbps : float; idleness : float }

type t = link_obs array

let validate obs =
  if Array.length obs = 0 then invalid_arg "Estimators: empty observations";
  Array.iter
    (fun o ->
      if o.rate_mbps <= 0.0 then invalid_arg "Estimators: non-positive rate";
      if o.idleness < 0.0 || o.idleness > 1.0 then invalid_arg "Estimators: idleness out of [0,1]")
    obs

let check_clique obs clique =
  if clique = [] then invalid_arg "Estimators: empty clique";
  List.iter
    (fun i ->
      if i < 0 || i >= Array.length obs then invalid_arg "Estimators: clique index out of range")
    clique

let bottleneck obs =
  validate obs;
  Array.fold_left (fun acc o -> Float.min acc (o.idleness *. o.rate_mbps)) infinity obs

let clique_constraint ~cliques obs =
  validate obs;
  List.fold_left
    (fun acc clique ->
      check_clique obs clique;
      let time = List.fold_left (fun t i -> t +. (1.0 /. obs.(i).rate_mbps)) 0.0 clique in
      Float.min acc (1.0 /. time))
    infinity cliques

let min_clique_bottleneck ~cliques obs =
  Float.min (clique_constraint ~cliques obs) (bottleneck obs)

let conservative ~cliques obs =
  validate obs;
  List.fold_left
    (fun acc clique ->
      check_clique obs clique;
      let members = List.map (fun i -> obs.(i)) clique in
      let sorted = List.sort (fun a b -> Float.compare a.idleness b.idleness) members in
      let _, bound =
        List.fold_left
          (fun (inv_sum, best) o ->
            let inv_sum = inv_sum +. (1.0 /. o.rate_mbps) in
            (inv_sum, Float.min best (o.idleness /. inv_sum)))
          (0.0, infinity) sorted
      in
      Float.min acc bound)
    infinity cliques

let expected_clique_time ~cliques obs =
  validate obs;
  let worst =
    List.fold_left
      (fun acc clique ->
        check_clique obs clique;
        let time =
          List.fold_left
            (fun t i ->
              let o = obs.(i) in
              if o.idleness <= 0.0 then infinity else t +. (1.0 /. (o.idleness *. o.rate_mbps)))
            0.0 clique
        in
        Float.max acc time)
      0.0 cliques
  in
  if worst = 0.0 then infinity else 1.0 /. worst

type all = {
  bottleneck : float;
  clique_constraint : float;
  min_clique_bottleneck : float;
  conservative : float;
  expected_clique_time : float;
}

let all ~cliques obs =
  {
    bottleneck = bottleneck obs;
    clique_constraint = clique_constraint ~cliques obs;
    min_clique_bottleneck = min_clique_bottleneck ~cliques obs;
    conservative = conservative ~cliques obs;
    expected_clique_time = expected_clique_time ~cliques obs;
  }

let names = [ "bottleneck(10)"; "clique(11)"; "min(12)"; "conservative(13)"; "expected-T(15)" ]

let values e =
  [
    e.bottleneck; e.clique_constraint; e.min_clique_bottleneck; e.conservative;
    e.expected_clique_time;
  ]

let mean_abs_errors = function
  | [] -> List.map (fun name -> (name, nan)) names
  | pairs ->
    let n = float_of_int (List.length pairs) in
    let sums =
      List.fold_left
        (fun acc (est, truth) ->
          List.map2 (fun s v -> s +. Float.abs (v -. truth)) acc (values est))
        (List.map (fun _ -> 0.0) names)
        pairs
    in
    List.map2 (fun name s -> (name, s /. n)) names sums
