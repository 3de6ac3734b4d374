(** Connected components of the undirected view of a graph.

    Topology generators retry placements until the network is connected;
    this module provides the check. *)

val count : Digraph.t -> int
(** Number of connected components (isolated nodes count). *)

val is_connected : Digraph.t -> bool
(** Whether the undirected view is a single component.  The empty graph
    and the one-node graph are connected. *)

val same_component : Digraph.t -> int -> int -> bool
(** Whether two nodes share a component. *)
