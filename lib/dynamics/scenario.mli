(** Seeded time-varying scenario timelines.

    A scenario is a base topology plus an epoch-bucketed stream of
    deltas: Poisson flow arrivals and departures, diurnal demand
    scaling, node leave/join churn and random-waypoint drift — all
    drawn from named {!Wsn_prng.Streams} of one master seed, so a
    timeline is a pure value reproducible from [(params, seed)].

    The node universe is fixed: a node that "leaves" is parked at a
    remote position (outside every carrier-sense range, so no links
    form) and a later "join" returns it to a freshly drawn arena
    position.  This keeps every per-node array the same size across
    the whole timeline, which is what lets {!Wsn_mac.Sim.apply_delta}
    patch kernels incrementally instead of rebuilding them.

    A probe source/target pair is drawn once and pinned — those two
    nodes never leave (though they may drift), so the tracked path has
    endpoints in every epoch. *)

type params = {
  n_nodes : int;  (** Fixed node universe (≥ 2). *)
  n_flows0 : int;  (** Background flows alive at t = 0. *)
  demand_mbps : float;  (** Base per-flow demand; each flow jitters it by ×[0.5, 1.5). *)
  horizon_h : float;  (** Simulated timeline length in hours. *)
  epochs : int;  (** Number of equal-length epochs the horizon is cut into. *)
  arrival_per_h : float;  (** Poisson flow-arrival rate (per hour). *)
  departure_per_h : float;  (** Per-live-flow departure rate (per hour). *)
  leave_per_h : float;  (** Per-active-unpinned-node leave rate (per hour). *)
  join_per_h : float;  (** Per-parked-node rejoin rate (per hour). *)
  mobile_frac : float;  (** Fraction of nodes doing random-waypoint drift. *)
  speed_mps : float * float;  (** Waypoint speed range in m/s, [lo ≤ hi]. *)
  diurnal_amp : float;  (** Amplitude of the diurnal demand sinusoid, in [0, 1). *)
}

val default : params
(** 30 nodes, 6 initial flows at 0.5 Mbit/s base demand, 24 h in 48
    epochs, gentle churn (≈1.5 arrivals/h, sparse leave/join) and 20%
    of nodes drifting at 0.02–0.1 m/s. *)

type event =
  | Flow_arrival of { source : int; target : int; demand_mbps : float }
      (** A new background flow between two currently active nodes. *)
  | Flow_departure of int
      (** The [k]-th oldest live flow ends (0-based; the generator
          guarantees [k] is within the live count at that point). *)
  | Node_leave of int
      (** The node powers down: it is parked at {!park_position}. *)
  | Node_join of { node : int; pos : Wsn_net.Point.t }
      (** A parked node returns at a freshly drawn arena position. *)

type epoch = {
  index : int;
  t_start_h : float;  (** Epoch start on the simulated clock, hours. *)
  demand_scale : float;  (** Diurnal demand multiplier ({!demand_scale} at mid-epoch). *)
  events : event list;  (** Deltas falling in this epoch, in draw order. *)
  moves : (int * Wsn_net.Point.t) list;
      (** Waypoint-drift relocations accumulated over the {e previous}
          epoch, applied at this epoch's start ([moves = \[\]] for epoch
          0).  Applied {e before} [events]. *)
}

type t = {
  params : params;
  seed : int64;
  base : Wsn_net.Topology.t;  (** Topology at t = 0 (before any event). *)
  probe_source : int;  (** Pinned probe endpoint. *)
  probe_target : int;  (** Pinned probe endpoint, distinct from the source. *)
  timeline : epoch list;  (** One entry per epoch, in order. *)
}

val park_position : int -> Wsn_net.Point.t
(** Where node [i] sits while "left": a unique position ≥ 1 km from the
    arena and from every other parked node, far outside carrier-sense
    range, so a parked node forms no links. *)

val demand_scale : params -> t_h:float -> float
(** The diurnal multiplier [1 + amp·sin(2π·(t−6)/24)]: demand peaks at
    simulated noon and bottoms out at midnight. *)

val generate : ?params:params -> seed:int64 -> unit -> t
(** [generate ~seed ()] draws the base topology (constant-density
    arena, connected) and the full timeline.  Deterministic in
    [(params, seed)]; uses its own named streams ("dyn-topology",
    "dyn-flows", "dyn-waypoints", "dyn-events") so it composes with
    other seeded components.
    @raise Invalid_argument on out-of-range {!params}. *)
