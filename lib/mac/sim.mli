(** Slotted CSMA/CA (802.11-DCF-style) network simulator.

    The paper's distributed estimator measures channel idleness by
    carrier sensing; this simulator produces that measurement for any
    topology and background traffic, complementing the analytic
    idleness derived from an optimal schedule.  Model:

    - time advances in backoff slots; a station defers while the channel
      is sensed busy, waits DIFS, then counts down a uniform backoff in
      [0, CW) and transmits a whole frame;
    - every link transmits at its best alone rate;
    - reception succeeds iff the receiver is not itself transmitting and
      the SINR (Equation 3 over all concurrent transmitters) stays above
      the rate's requirement for the frame's whole airtime;
    - failed frames retry with doubled contention window up to a retry
      limit; flows forward hop by hop along their link paths;
    - no RTS/CTS and no ACK airtime: the transmitter learns the outcome
      for free.  This idealisation does not affect the sensed-idleness
      measurement, which only depends on data-frame airtime.

    Everything is deterministic in the seed.  {!run} is the production
    loop — event-driven, refcounted carrier sensing, busy time credited
    once per busy period, bulk jumps over every slot where stations
    only count down, allocation-free per slot.  The original
    slot-stepping loop, [Wsn_oracles.Sim_reference.run], is kept beside
    the tests as the behavioural oracle.  Both produce byte-identical
    {!stats} (pinned by the QCheck parity suite; the jump-soundness
    argument is DESIGN.md Appendix E). *)

type flow_spec = {
  links : int list;  (** The flow's route as topology link ids; each link's source must be the previous link's destination. *)
  demand_mbps : float;  (** Offered CBR load. *)
}

type flow_stats = {
  offered_mbps : float;
  delivered_mbps : float;  (** End-to-end goodput over the run. *)
  frames_delivered : int;
  frames_dropped : int;  (** Retry-limit and queue-overflow losses, all hops. *)
  mean_latency_us : float;  (** Mean end-to-end frame latency; [nan] when nothing was delivered. *)
  p95_latency_us : float;  (** 95th-percentile latency; [nan] when nothing was delivered. *)
}

type stats = {
  duration_us : int;
  node_idleness : float array;  (** Per node: share of slots the channel was sensed idle. *)
  flows : flow_stats array;  (** Aligned with the input flow list. *)
  frames_sent : int;  (** Transmission attempts, all hops and retries. *)
  collisions : int;  (** Attempts that ended corrupted. *)
}

val link_idleness : stats -> Wsn_net.Topology.t -> int -> float
(** Equation 10 on measured data: min of the endpoints' idleness. *)

val validate_flows : Wsn_net.Topology.t -> flow_spec list -> unit
(** The input check of {!run} (and of the slot-stepping oracle the
    tests compare it with).
    @raise Invalid_argument on an empty route, links that do not chain,
    or a negative demand. *)

type prepared
(** A topology's precomputed channel kernel: pairwise distances and
    received powers, and per-node carrier-sense neighbourhoods as
    bitsets.  Immutable once built — share it freely across runs,
    configurations, seeds and domains. *)

val prepare : Wsn_net.Topology.t -> prepared
(** [prepare topo] builds the kernel in O(n²) once, so repeated runs on
    the same topology (replications, config sweeps, benchmarks) skip
    the quadratic setup. *)

val apply_delta : prepared -> Wsn_net.Topology.t -> moved:int list -> prepared
(** [apply_delta pre topo ~moved] patches [pre] into the kernel of
    [topo], a topology over the {e same} node set in which exactly the
    nodes listed in [moved] changed position (mobility drift, or a
    join/leave relocating a node): only the rows, columns and
    carrier-sense memberships touching a moved node are recomputed —
    O(|moved|·n) PHY evaluations instead of O(n²) — through the same
    pure functions as {!prepare}, so the result is byte-identical to
    [prepare topo] (the dynamics QCheck suite pins this).  The input
    kernel is consumed: its arrays are patched in place and aliased by
    the returned value.
    @raise Invalid_argument if the node count changed or a moved node
    is out of range. *)

val prepared_digest : prepared -> string
(** Hex content digest of the kernel (distance and power matrices,
    carrier-sense bitsets).  Equal digests mean byte-identical kernels;
    the soak bench gates {!apply_delta} chains against full rebuilds
    with it. *)

val run :
  ?config:Dcf_config.t ->
  ?seed:int64 ->
  ?prepared:prepared ->
  Wsn_net.Topology.t ->
  flows:flow_spec list ->
  duration_us:int ->
  stats
(** [run topo ~flows ~duration_us] simulates the network (default
    config {!Dcf_config.default}, default seed 1).  Passing [?prepared]
    (from {!prepare} on the {e same} topology value) reuses the
    precomputed kernel.
    @raise Invalid_argument on an invalid route, negative demand, or a
    [prepared] kernel built from a different topology. *)

val run_replications :
  ?config:Dcf_config.t ->
  ?prepared:prepared ->
  seeds:int64 list ->
  Wsn_net.Topology.t ->
  flows:flow_spec list ->
  duration_us:int ->
  stats list
(** [run_replications ~seeds topo ~flows ~duration_us] runs one
    simulation per seed on the global domain pool
    ({!Wsn_parallel.Pool.set_domains}), returning the stats in seed
    order — byte-identical to mapping {!run} over [seeds]
    sequentially, at any pool size.  The prepared kernel (given or
    built once here) is shared read-only across domains. *)
