(** E16 — Eq. 6 availability at 100–1000 nodes (heuristic pricing tier).

    Generates a density-preserving scaled topology
    ({!Wsn_workload.Scenarios.Scale_scenario}), routes the drawn flows
    by end-to-end transmission delay (hop count favours the longest —
    slowest — links and routinely over-commits the background's TDMA
    budget at density), loads all but the first as background traffic, and
    brackets the first flow's available bandwidth: the column-generation
    lower bound under the selected pricing tier against the
    hard-conflict clique upper bound ({!Wsn_availbw.Bounds.clique_upper}).
    Under [Auto] on a small universe the bracket's lower side is the
    certified Eq. 6 optimum; past {!Wsn_availbw.Column_gen.auto_exact_max}
    (128) links the gap measures what the heuristic tier trades for scale. *)

type row = {
  n_nodes : int;
  n_links : int;  (** Directed links in the generated topology. *)
  n_flows : int;  (** Flows that routed (all, on a connected topology). *)
  universe : int;  (** Links in the query's LP universe. *)
  n_shards : int;  (** Carrier-sense locality shards of that universe. *)
  lower_mbps : float;  (** Column-generation availability (lower side). *)
  upper_mbps : float;  (** Hard-conflict clique bound (upper side). *)
  gap_mbps : float;  (** [max 0 (upper - lower)]. *)
  certified : bool;  (** Lower side certified optimal by the exact pricer. *)
  columns : int;  (** Columns generated (seed + priced). *)
  iterations : int;  (** Master solves. *)
  seconds : float;  (** Wall time of the availability query alone. *)
}

val query :
  ?max_iterations:int ->
  ?pricer:Wsn_availbw.Column_gen.pricer ->
  ?shards:int ->
  ?lp_pricing:Wsn_availbw.Column_gen.lp_pricing ->
  ?stabilize:bool ->
  ?n_flows:int ->
  ?demand_mbps:float ->
  n_nodes:int ->
  seed:int64 ->
  unit ->
  row
(** One bracketed availability query on a generated [n_nodes]-node
    scenario.  [pricer] defaults to [Auto]; [shards] caps the
    heuristic's shard count (0 = natural locality partition).
    [max_iterations] bounds the master solves — under a heuristic tier
    the query is anytime, so a cap trades wall time for bracket gap
    (the lower side stays a valid bound, merely uncertified).
    [lp_pricing]/[stabilize] tune the master simplex (see
    {!Wsn_availbw.Column_gen.available}) without changing any reported
    bound.  Deterministic in [seed] apart from [seconds]. *)

val run :
  ?ns:int list ->
  ?max_iterations:int ->
  ?pricer:Wsn_availbw.Column_gen.pricer ->
  ?shards:int ->
  ?lp_pricing:Wsn_availbw.Column_gen.lp_pricing ->
  ?stabilize:bool ->
  ?n_flows:int ->
  ?demand_mbps:float ->
  seed:int64 ->
  unit ->
  row list
(** {!query} at each size of [ns] (default [[30; 100; 300; 1000]]). *)

val print :
  ?ns:int list ->
  ?max_iterations:int ->
  ?pricer:Wsn_availbw.Column_gen.pricer ->
  ?shards:int ->
  ?lp_pricing:Wsn_availbw.Column_gen.lp_pricing ->
  ?stabilize:bool ->
  seed:int64 ->
  unit ->
  unit
(** {!run} as a table on stdout. *)
