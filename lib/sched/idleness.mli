(** Channel idleness as measured by carrier sensing (Section 4).

    Given a background schedule over a geometric topology, a node's
    channel is busy during a slot when the node itself transmits or
    receives in it, or when it hears (within carrier-sense range) any of
    the slot's transmitters.  The idleness ratio [λ_idle ≤ 1] is the
    complementary share — exactly what the paper's distributed
    estimator measures by sensing, computed here analytically. *)

val node_busy_share : Wsn_net.Topology.t -> Schedule.t -> int -> float
(** [node_busy_share topo sched v] is the share of time node [v] senses
    a busy channel under [sched], capped at [1.0]. *)

val node_idleness : Wsn_net.Topology.t -> Schedule.t -> int -> float
(** [1 - node_busy_share], clamped to [\[0, 1\]]. *)

val link_idleness : Wsn_net.Topology.t -> Schedule.t -> int -> float
(** Equation (10): the idleness a link can exploit is the smaller of its
    transmitter's and receiver's idleness. *)

val node_table : Wsn_net.Topology.t -> Schedule.t -> float array
(** [node_table topo sched] holds every node's idleness under [sched],
    indexed by node: entry [v] is [node_idleness topo sched v], computed
    by that very function, so it is bit-identical to it.  Idleness
    depends only on the schedule, so a router that prices many links
    against one schedule builds this once (O(n · slots · links)) instead
    of re-folding both endpoints over every slot per link. *)

val table_link_idleness : Wsn_net.Topology.t -> float array -> int -> float
(** [table_link_idleness topo (node_table topo sched) l] is Equation
    (10) read from the table: the same [Float.min] of the same two
    floats as [link_idleness topo sched l], hence equal to it under
    [Float.equal]. *)
