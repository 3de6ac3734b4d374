(** Joint QoS routing and link scheduling (Section 4).

    The paper notes that finding the best path jointly with the
    schedule is NP-hard and retreats to distributed heuristics.  The
    {e splittable} relaxation, however, is a linear program: route the
    new traffic as a flow (conservation at every node, any number of
    paths) while scheduling all links over independent-set columns.
    Its optimum upper-bounds every single-path router and measures how
    much the path restriction itself costs.

    The LP, over the full link set of the topology:
    {v
      maximize f
        Σ_α λ_α ≤ 1
        per link e:   Σ_α λ_α·R*_α(e) ≥ background_load(e) + g(e)
        per node v:   Σ_out g(e) − Σ_in g(e) = f·[v = source] − f·[v = target]
        λ, g, f ≥ 0
    v}
    where [g] is the new flow on each link.  Enumerating columns for
    {e all} links of a topology is exponential in the worst case, and
    {!Wsn_conflict.Independent.columns} fails past its default
    200000-set guard.  Use on small/medium networks (the
    30-node scenario works because interference keeps independent sets
    small). *)

type result = {
  throughput_mbps : float;  (** The splittable-routing optimum [f]. *)
  link_flow : int -> float;  (** New-flow Mbit/s routed over each link. *)
  schedule : Wsn_sched.Schedule.t;  (** Witness schedule carrying background plus the flow. *)
}

val max_flow :
  ?universe:int list ->
  Wsn_net.Topology.t ->
  Wsn_conflict.Model.t ->
  background:Flow.t list ->
  source:int ->
  target:int ->
  result option
(** [max_flow topo model ~background ~source ~target] solves the joint
    LP.  [None] when the background alone is infeasible.  [universe]
    restricts the links the flow may use and the columns are built on
    (background links are always included); it defaults to every link
    of the topology, which is only tractable on small networks — on
    larger ones pass a candidate set, e.g. the union of several
    Yen paths (restricting links yields a lower bound on the
    unrestricted joint optimum).
    @raise Invalid_argument if [source = target] or out of range. *)

val extract_path : Wsn_net.Topology.t -> result -> source:int -> target:int -> int list option
(** A single path carrying positive new flow, by greedily following the
    largest [link_flow] out of each node ([None] if the optimum is 0).
    Useful to turn the relaxation into a concrete (suboptimal) route. *)
