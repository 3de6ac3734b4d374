(** Heuristic column pricer: greedy maximal-set construction with a
    bounded local-search pass, optionally sharded by interference
    locality.

    The exact pricer ({!Pricing.max_weight_independent}) searches the
    full branch-and-bound forest — exponential in the universe, which
    caps Eq. 6 at Fig. 2 scale (~30 nodes).  This module trades
    optimality for scale, in the spirit of greedy physical-model
    scheduling (Zhou et al., arXiv:1208.0902; Sunny et al.,
    arXiv:1111.6691):

    + order candidates by optimistic dual value
      [weight l * mbps (best alone rate)];
    + greedily grow an independent set under the SINR kernel's
      incremental add/undo state, accepting a link only when the set's
      {e total} value strictly improves (a new transmitter can slow
      every member down);
    + improve with a bounded 1-out/greedy-in local search.

    Every returned assignment is feasible under the model — the
    heuristic can only miss value, never fabricate it — so a column it
    prices is always a valid LP column and the resulting bandwidth a
    certified {e lower} bound.  Optimality certification (no improving
    column exists) still requires the exact pricer.

    {b Sharding.}  {!shards} partitions a universe into carrier-sense
    locality components: links whose endpoints are mutually beyond the
    PHY's carrier-sense range interact only through residual SINR
    leakage, so each shard is priced independently (fanned across the
    {!Wsn_parallel.Pool.global} pool on forked model views) and the
    shard-local sets are stitched under the full model, which
    re-validates every link and at worst drops one — never admits an
    infeasible set.  Results are deterministic: candidate order is
    total (value, then link id), shards are stitched in input order,
    and {!Wsn_parallel.Pool.map} delivers in input order regardless of
    scheduling. *)

val shards : Model.t -> int list -> int list list
(** [shards model universe] partitions [universe] into connected
    components of the carrier-sense interaction graph (two links
    interact when any endpoint pair is within
    {!Wsn_radio.Phy.cs_range}), each sorted ascending, ordered by
    minimum link.  Models without a kernel (no geometry) yield a single
    shard. *)

val max_weight_independent :
  ?shards:int list list ->
  Model.t ->
  weights:(int -> float) ->
  universe:int list ->
  (Model.assignment * float) option
(** [max_weight_independent model ~weights ~universe] heuristically
    maximises [sum (weights l * mbps r)] over feasible assignments
    within [universe].  Returns the assignment with its exact value
    (computed under the model, so it can be compared against the dual
    threshold), or [None] when no positive-weight candidate yields a
    non-empty set.  The local search tries evicting only the 8
    lowest-contribution members and accepts at most 16 improving
    moves; every value comparison is strict up to [1e-9].
    [shards], when given, must be a partition of (a superset of) the
    universe as produced by {!shards}. *)

val value : Model.t -> weights:(int -> float) -> Model.assignment -> float
(** [value model ~weights a] is [sum (weights l * mbps r)] over [a] —
    the dual value of an already-built assignment.  Used by stabilised
    column generation to re-price candidates found under smoothed duals
    against the {e true} duals before appending them; the fold order
    matches the valuation inside {!max_weight_independent}. *)
