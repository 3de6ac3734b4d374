(** All-pairs shortest distances (Floyd–Warshall).

    O(V³); an independent oracle for the single-source algorithms of
    {!Wsn_graph} in tests, with the diameter and eccentricity it
    induces. *)

val distances : Wsn_graph.Digraph.t -> weight:(Wsn_graph.Digraph.edge -> float) -> float array array
(** [distances g ~weight] is the matrix of shortest-path distances;
    [infinity] marks unreachable pairs, the diagonal is 0.  Negative
    weights are accepted; behaviour on negative cycles is unspecified
    (use {!Bellman_ford} to detect them first). *)

val diameter : Wsn_graph.Digraph.t -> weight:(Wsn_graph.Digraph.edge -> float) -> float
(** Largest finite pairwise distance; 0 for the empty or edgeless
    graph. *)

val eccentricity : Wsn_graph.Digraph.t -> weight:(Wsn_graph.Digraph.edge -> float) -> int -> float
(** [eccentricity g ~weight v] is the largest finite distance from [v];
    0 when nothing is reachable. *)
