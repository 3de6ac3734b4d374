module Topology = Wsn_net.Topology
module Phy = Wsn_radio.Phy
module Digraph = Wsn_graph.Digraph

let slot_heard_by topo slot v =
  let phy = Topology.phy topo in
  List.exists
    (fun l ->
      let e = Topology.link topo l in
      e.Digraph.src = v || e.Digraph.dst = v
      || Phy.carrier_sensed phy (Topology.node_distance topo e.Digraph.src v))
    slot.Schedule.links

let node_busy_share topo sched v =
  let busy =
    List.fold_left
      (fun acc slot -> if slot_heard_by topo slot v then acc +. slot.Schedule.share else acc)
      0.0 (Schedule.slots sched)
  in
  Float.min busy 1.0

let node_idleness topo sched v = Float.max 0.0 (1.0 -. node_busy_share topo sched v)

let link_idleness topo sched l =
  let e = Topology.link topo l in
  Float.min (node_idleness topo sched e.Digraph.src) (node_idleness topo sched e.Digraph.dst)

let node_table topo sched = Array.init (Topology.n_nodes topo) (node_idleness topo sched)

let table_link_idleness topo table l =
  let e = Topology.link topo l in
  Float.min table.(e.Digraph.src) table.(e.Digraph.dst)
