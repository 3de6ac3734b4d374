(** Bellman–Ford shortest paths.

    Slower than {!Wsn_graph.Dijkstra} but independent of it; the test suite uses
    it as an oracle for Dijkstra on random graphs.  Negative weights are
    accepted; negative cycles are reported. *)

type result =
  | Distances of float array  (** [dist.(v)], [infinity] if unreachable. *)
  | Negative_cycle  (** A negative cycle is reachable from the source. *)

val distances : Wsn_graph.Digraph.t -> weight:(Wsn_graph.Digraph.edge -> float) -> source:int -> result
(** [distances g ~weight ~source] relaxes every edge [n_nodes - 1]
    times, then reports a negative cycle if another relaxation still
    improves some distance.
    @raise Invalid_argument if [source] is out of range. *)
