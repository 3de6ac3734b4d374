(** The paper's hand-built topologies (Fig. 1) and the random scenario
    of Section 5.2.

    Scenario I and II are specified by fiat (which link interferes with
    which, at which rates), so they use the declared conflict model;
    the random scenario is geometric and uses the physical model. *)

(** {1 Scenario I — three links (Section 1)} *)

module Scenario_i : sig
  val rate_mbps : float
  (** Single channel rate used by all three links (54 Mbit/s). *)

  val model : Wsn_conflict.Model.t
  (** Links 0 and 1 do not interfere with each other; link 2 interferes
      with (and hears) both. *)

  val background : lambda:float -> Wsn_availbw.Flow.t list
  (** Background traffic: a time share [lambda] of the channel rate on
      link 0 and on link 1.
      @raise Invalid_argument unless [0 ≤ lambda ≤ 0.5]. *)

  val new_path : int list
  (** The one-hop path over link 2. *)

  val naive_schedule : lambda:float -> Wsn_sched.Schedule.t
  (** The background schedule an uncoordinated 802.11 MAC produces
      before the new flow arrives: links 0 and 1 in {e disjoint} slots.
      Under it link 2 senses a busy channel for [2·lambda] of the time. *)

  val idle_time_estimate : lambda:float -> float
  (** The channel-idle-time estimate of link 2's available bandwidth
      under {!naive_schedule}: [(1 - 2·lambda) · rate]. *)

  val optimal_bandwidth : lambda:float -> float
  (** The true optimum [(1 - lambda) · rate] (the paper's observation
      that an optimal scheduler overlaps the two background shares). *)
end

(** {1 Scenario II — four-link chain (Sections 3.1 and 5.1)} *)

module Scenario_ii : sig
  val model : Wsn_conflict.Model.t
  (** Four links, each supporting 36 and 54 Mbit/s alone.  Any two of
      links \{0,1,2\} interfere at every rate, and likewise \{1,2,3\};
      links 0 and 3 interfere iff link 0 transmits at 54 Mbit/s. *)

  val path : int list
  (** The four-hop flow [0; 1; 2; 3]. *)

  val rate_54 : Wsn_radio.Rate.t
  (** Index of 54 Mbit/s in the scenario's table. *)

  val rate_36 : Wsn_radio.Rate.t
  (** Index of 36 Mbit/s in the scenario's table. *)

  val paper_optimum : float
  (** The end-to-end optimum reported by the paper: 16.2 Mbit/s. *)

  val paper_fixed_rate_bounds : float * float
  (** Clique upper bounds under the two fixed rate vectors
      [R₁ = (54,54,54,54)] and [R₂ = (36,54,54,54)]:
      13.5 and 108/7 ≈ 15.43 Mbit/s (Equation 7). *)
end

(** {1 Random scenario — Section 5.2} *)

module Random_scenario : sig
  type t = {
    topology : Wsn_net.Topology.t;
    model : Wsn_conflict.Model.t;
    flows : (int * int * float) list;  (** (source, destination, demand in Mbit/s). *)
  }

  val generate : ?config:Wsn_net.Generator.config -> ?n_flows:int -> ?demand_mbps:float -> seed:int64 -> unit -> t
  (** [generate ~seed ()] reproduces the paper's setup: 30 nodes in
      400 m × 600 m under the 802.11a PHY, with [n_flows] (default 8)
      random source–destination pairs each demanding [demand_mbps]
      (default 2.0).  Deterministic in [seed]. *)
end

(** {1 Scale scenarios — large topologies for greedy-first pricing} *)

module Scale_scenario : sig
  type t = {
    topology : Wsn_net.Topology.t;
    model : Wsn_conflict.Model.t;
    flows : (int * int * float) list;  (** (source, destination, demand in Mbit/s). *)
  }

  val config : n_nodes:int -> Wsn_net.Generator.config
  (** The paper's placement scaled to [n_nodes] at {e constant
      density}: the 400 m × 600 m rectangle grows by [sqrt (n/30)] in
      each dimension, keeping the expected node degree (~10 under the
      802.11a PHY) — and with it connectivity — independent of [n].
      @raise Invalid_argument if [n_nodes < 2]. *)

  val generate :
    ?n_flows:int -> ?demand_mbps:float -> n_nodes:int -> seed:int64 -> unit -> t
  (** [generate ~n_nodes ~seed ()] draws a connected uniform-disk
      multirate topology under {!config} plus [n_flows] (default
      [max 8 (n_nodes/25)]) random source–destination pairs each
      demanding [demand_mbps] (default 0.5, light enough that the
      background stays schedulable at density).  Deterministic in
      [seed]: the same named PRNG streams as {!Random_scenario}, so
      [n_nodes = 30] with the paper config's flow parameters matches
      its draws. *)
end

(** {1 Admission traces — workload for the admission server} *)

module Admission_trace : sig
  (** Seeded Poisson admit/release/query streams for driving a
      {!Wsn_admission} session: admissions arrive at [arrival_rate],
      each live flow departs at [release_rate], and read-only queries
      arrive at [query_rate] (competing exponentials).  A release names
      the [k]-th {e oldest} live flow rather than a flow id, so a trace
      is a pure function of its seed and can be replayed against any
      server.  A small hotspot set of endpoint pairs dominates (~70% of
      admits and queries) so warm sessions see realistic repeats. *)

  type op =
    | Admit of { source : int; target : int; demand_mbps : float }
    | Release_nth of int
        (** Release the [k]-th oldest live flow (0-based); an overshoot
            — possible when the server rejected an earlier admit —
            draws an error response, deterministically. *)
    | Query of { source : int; target : int; demand_mbps : float option }

  type t = op list

  val generate :
    ?n_nodes:int ->
    ?n_ops:int ->
    ?arrival_rate:float ->
    ?release_rate:float ->
    ?query_rate:float ->
    seed:int64 ->
    unit ->
    t
  (** [generate ~seed ()] draws [n_ops] (default 100) operations over
      nodes [0 .. n_nodes-1] (default 30, matching the paper topology).
      Deterministic in [seed] (own named stream, independent of the
      topology streams).
      @raise Invalid_argument if [n_nodes < 2] or [n_ops < 0]. *)

  val to_request_lines : t -> string list
  (** The trace as admission-protocol JSON request lines, one per op. *)
end
