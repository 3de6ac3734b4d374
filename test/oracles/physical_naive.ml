module Model = Wsn_conflict.Model
module Rate = Wsn_radio.Rate
module Phy = Wsn_radio.Phy
module Topology = Wsn_net.Topology
module Digraph = Wsn_graph.Digraph

(* Reference implementation: distances, powers and SINR recomputed from
   scratch on every query.  Kept as the ground truth the precomputed
   kernel is tested against (and benchmarked as the "before" side). *)
let model topo =
  let phy = Topology.phy topo in
  let rates = Phy.rates phy in
  let nl = Topology.n_links topo in
  let endpoints l =
    let e = Topology.link topo l in
    (e.Digraph.src, e.Digraph.dst)
  in
  let share_node l1 l2 =
    let s1, d1 = endpoints l1 and s2, d2 = endpoints l2 in
    s1 = s2 || s1 = d2 || d1 = s2 || d1 = d2
  in
  let alone_rates l =
    let best = Topology.alone_rate topo l in
    (* A link supports its best alone rate and every slower one. *)
    List.filter (fun r -> r >= best) (Rate.all rates)
  in
  (* Maximum supported rate of every link in a concurrent set; None when
     some link supports no rate (set not independent) or half-duplex is
     violated. *)
  let max_vector set =
    let arr = Array.of_list set in
    let n = Array.length arr in
    let ok = ref true in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if share_node arr.(i) arr.(j) then ok := false
      done
    done;
    if not !ok then None
    else begin
      let result = Array.make n 0 in
      (try
         for j = 0 to n - 1 do
           let _, rx = endpoints arr.(j) in
           let signal_distance = Topology.link_distance topo arr.(j) in
           let interferer_distances =
             List.filter_map
               (fun l ->
                 if l = arr.(j) then None
                 else begin
                   let tx, _ = endpoints l in
                   Some (Topology.node_distance topo tx rx)
                 end)
               set
           in
           match Phy.best_rate_under phy ~signal_distance ~interferer_distances with
           | Some r -> result.(j) <- r
           | None -> raise Exit
         done;
         ()
       with Exit -> ok := false);
      if !ok then Some result else None
    end
  in
  let feasible assignment =
    let set = List.map fst assignment in
    match max_vector set with
    | None -> false
    | Some maxes ->
      (* Rates are indices with 0 fastest: supported iff requested rate
         is no faster than the maximum, i.e. index >= max index. *)
      List.for_all2 (fun (_, r) m -> r >= m) assignment (Array.to_list maxes)
  in
  Model.create ~n_links:nl ~rates ~alone_rates ~feasible ~max_vector ()
