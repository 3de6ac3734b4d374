module Topology = Wsn_net.Topology
module Digraph = Wsn_graph.Digraph

type t =
  | Hop_count
  | E2e_transmission_delay
  | Average_e2e_delay

let all = [ Hop_count; E2e_transmission_delay; Average_e2e_delay ]

let name = function
  | Hop_count -> "hop-count"
  | E2e_transmission_delay -> "e2eTD"
  | Average_e2e_delay -> "average-e2eD"

let weight topo ~idleness metric (e : Digraph.edge) =
  let id = e.Digraph.id in
  match metric with
  | Hop_count -> 1.0
  | E2e_transmission_delay -> 1.0 /. Topology.alone_mbps topo id
  | Average_e2e_delay ->
    let lam = idleness id in
    if lam <= 0.0 then infinity else 1.0 /. (lam *. Topology.alone_mbps topo id)
