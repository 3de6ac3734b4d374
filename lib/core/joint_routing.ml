module Topology = Wsn_net.Topology
module Digraph = Wsn_graph.Digraph
module Model = Wsn_conflict.Model
module Independent = Wsn_conflict.Independent
module Schedule = Wsn_sched.Schedule
module Problem = Wsn_lp.Problem
module Types = Wsn_lp.Types

type result = {
  throughput_mbps : float;
  link_flow : int -> float;
  schedule : Schedule.t;
}

let max_flow ?universe topo model ~background ~source ~target =
  let n = Topology.n_nodes topo in
  if source < 0 || source >= n || target < 0 || target >= n then
    invalid_arg "Joint_routing.max_flow: node out of range";
  if source = target then invalid_arg "Joint_routing.max_flow: source equals target";
  let candidate_links =
    match universe with
    | Some links -> links
    | None -> List.map (fun e -> e.Digraph.id) (Topology.links topo)
  in
  let universe = List.sort_uniq compare (Flow.union_links background @ candidate_links) in
  let columns = Independent.columns model ~universe in
  let index = Hashtbl.create 64 in
  List.iteri (fun i l -> Hashtbl.replace index l i) universe;
  let lp = Problem.create Types.Maximize in
  let f = Problem.add_var ~obj:1.0 lp in
  let lambda = List.map (fun (_ : Independent.column) -> Problem.add_var lp) columns in
  let g = List.map (fun l -> (l, Problem.add_var lp)) universe in
  Problem.add_constraint lp (List.map (fun v -> (v, 1.0)) lambda) Types.Le 1.0;
  (* Capacity per link: scheduled throughput covers background plus the
     new flow routed over it. *)
  List.iter
    (fun l ->
      let i = Hashtbl.find index l in
      let supply = List.map2 (fun v (c : Independent.column) -> (v, c.mbps.(i))) lambda columns in
      Problem.add_constraint lp
        (supply @ [ (List.assoc l g, -1.0) ])
        Types.Ge (Flow.load_on background l))
    universe;
  (* Flow conservation at every node touched by some universe link. *)
  let nodes = Hashtbl.create 32 in
  List.iter
    (fun l ->
      let e = Topology.link topo l in
      Hashtbl.replace nodes e.Digraph.src ();
      Hashtbl.replace nodes e.Digraph.dst ())
    universe;
  Hashtbl.iter
    (fun v () ->
      let terms =
        List.filter_map
          (fun (l, gv) ->
            let e = Topology.link topo l in
            if e.Digraph.src = v then Some (gv, 1.0)
            else if e.Digraph.dst = v then Some (gv, -1.0)
            else None)
          g
      in
      let terms =
        if v = source then (f, -1.0) :: terms
        else if v = target then (f, 1.0) :: terms
        else terms
      in
      if terms <> [] then Problem.add_constraint lp terms Types.Eq 0.0)
    nodes;
  match Problem.solve lp with
  | Problem.Infeasible -> None
  | Problem.Unbounded -> failwith "Joint_routing.max_flow: LP unbounded (model bug)"
  | Problem.Solution s ->
    let shares = List.map (fun v -> s.Problem.values v) lambda in
    let flow_tbl = Hashtbl.create 64 in
    List.iter (fun (l, gv) -> Hashtbl.replace flow_tbl l (s.Problem.values gv)) g;
    let schedule =
      Schedule.make
        (List.map2
           (fun (c : Independent.column) share ->
             { Schedule.links = c.links; rates = c.rates; share = Float.max share 0.0 })
           columns shares)
    in
    Some
      {
        throughput_mbps = s.Problem.values f;
        link_flow = (fun l -> Option.value ~default:0.0 (Hashtbl.find_opt flow_tbl l));
        schedule;
      }

let extract_path topo result ~source ~target =
  if result.throughput_mbps <= 1e-9 then None
  else begin
    (* Greedy descent on the flow: from each node take the out-link with
       the most new flow; visited set guards against cycles. *)
    let visited = Hashtbl.create 16 in
    let rec walk v acc =
      if v = target then Some (List.rev acc)
      else if Hashtbl.mem visited v then None
      else begin
        Hashtbl.replace visited v ();
        let best =
          List.fold_left
            (fun acc e ->
              let fl = result.link_flow e.Digraph.id in
              match acc with
              | Some (_, bf) when bf >= fl -> acc
              | _ when fl > 1e-9 -> Some (e, fl)
              | _ -> acc)
            None
            (Digraph.out_edges (Topology.graph topo) v)
        in
        match best with
        | Some (e, _) -> walk e.Digraph.dst (e.Digraph.id :: acc)
        | None -> None
      end
    in
    walk source []
  end
