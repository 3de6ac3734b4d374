(** Column generation for the path-bandwidth LP (Equation 6 at scale).

    {!Path_bandwidth} enumerates every independent set of the involved
    links up front, which explodes on long paths or wide universes.
    Column generation sidesteps enumeration: start from the singleton
    (TDMA) columns, solve the restricted master, and let the LP duals
    drive a {!Wsn_conflict.Pricing} search for an independent set whose
    column would improve the master; repeat until none exists.  The
    result is the {e same} optimum (both solve the same LP), reached
    after generating only the columns the optimum actually needs.

    The master is made always-feasible with penalised shortfall
    variables (big-M); if any shortfall survives at convergence the
    background demands are genuinely unschedulable.  It is solved once
    and kept warm: every later round resumes the simplex from the
    previous basis.

    Two entry points share one loop and three optional arguments
    ([max_iterations], [pricer], [pool]): {!available} answers the
    query, {!available_sens} additionally returns the certified
    optimum's dual view.  The master's simplex rule, the dual
    stabilisation, the exact-fallback ceiling {!auto_exact_max} and the
    heuristic batch size are fixed, not settings: none of them changes
    the optimum. *)

type result = {
  bandwidth_mbps : float;
      (** The Equation-6 optimum when [certified]; otherwise a valid
          lower bound on it. *)
  schedule : Wsn_sched.Schedule.t;  (** Witness schedule. *)
  columns_generated : int;
      (** Columns this query created: the singleton seed plus freshly
          priced columns.  Pool replays are counted separately. *)
  columns_pooled : int;
      (** Columns replayed from the cross-query pool (0 without one). *)
  iterations : int;  (** Master solves until convergence. *)
  certified : bool;
      (** Whether the final pricing round proved no improving column
          exists (exact pricer had the last word).  Always true under
          {!Exact}; false when {!Auto} skips the exact fallback on a
          large universe or stops at the iteration cap. *)
}

type pricer =
  | Exact  (** Branch-and-bound pricing every round (the reference). *)
  | Auto
      (** {!Wsn_conflict.Pricing_greedy} first; when it stalls, fall
          back to the exact pricer if the universe has at most
          {!auto_exact_max} links (certifying optimality — and, below
          that size, reaching the same optimum as {!Exact}), otherwise
          stop with the greedy's uncertified lower bound: the universe
          size alone decides whether a query is certified.  Bracket
          the lower bound from above with {!Bounds.clique_upper}. *)

(** {b Master simplex.}  The master's warm resolves run Devex
    reference-weight pricing with candidate-list partial pricing, plus
    degenerate-pivot perturbation with an exact clean-up
    ({!Wsn_lp.Problem.solve_warm}): far cheaper than textbook Dantzig
    pricing on large degenerate cover masters, and the same optimum.

    {b Dual stabilisation.}  Under {!Auto}, pricing rounds see the true
    duals clamped into a boxstep trust region around a stability centre
    (the duals of the last round that priced an improving column).
    Candidates found under the smoothed duals are re-valued under the
    {e true} duals and appended only while genuinely improving, so the
    master optimum and all certification semantics are exactly those of
    the unstabilised loop; a stalled smoothed round widens the box (×4)
    and retries until it swallows the true duals.  The {!Exact} tier
    never sees smoothed duals.  Telemetry: [colgen.stab_box_widenings]. *)

val auto_exact_max : int
(** Universe-size ceiling (links) for {!Auto}'s exact fallback, fixed
    at 128: above it, certification is skipped and the result is a
    lower bound. *)

(** {b Batched heuristic pricing.}  A greedy pricing round may add
    up to 8 columns before the master resolves.  After the first
    improving column the greedy re-runs with this round's used links
    damped to zero weight, forcing disjoint supports; each batched
    column is re-valued under the original duals and kept only while
    improving.  Past a few hundred universe links the LP resolve
    dominates wall time, so batching cuts it by up to that factor.  The
    {!Exact} tier is unaffected (always one column per round). *)

(** {b Cover seeding.}  Under {!Auto} on a universe above
    {!auto_exact_max}, the seed additionally contains a greedy
    {e cover}: the pricer is re-run with already-covered links damped to
    zero weight until every link sits in some multi-link column.  On
    large masters the initial solve prices in seed columns orders of
    magnitude cheaper than post-pricing warm resolves (which stall on
    master degeneracy), so the first solve starts from a spatial-reuse
    cover instead of spending the iteration budget re-deriving one.
    Small universes are untouched — {!Auto} stays wire-identical to
    {!Exact} there.  Telemetry: [colgen.cover_columns]. *)

type pool
(** Cross-query column pool for a long-lived session: independent-set
    assignments priced in by earlier queries are replayed as extra seed
    columns for later masters on the {e same} model, so a repeat (or
    similar) query often converges with no pricing round at all.  The
    pool only affects which columns seed the master — the optimum is
    unchanged — and its contribution is deterministic (insertion order,
    deduplicated on the link-sorted assignment). *)

val create_pool : unit -> pool

val pool_size : pool -> int
(** Distinct assignments accumulated so far. *)

val available :
  ?max_iterations:int ->
  ?pricer:pricer ->
  ?pool:pool ->
  Wsn_conflict.Model.t ->
  background:Flow.t list ->
  path:int list ->
  result option
(** Column-generation counterpart of {!Path_bandwidth.available}; same
    contract ([None] = background infeasible; pass [~background:[]]
    for the bare path capacity).  [None] is itself a certificate, so
    only the exact pricer (or {!Auto}'s exact fallback) ever returns
    it; an uncertified stop that has not yet covered the background
    reports [Some] with a zero lower bound instead.

    One master tableau is kept alive across pricing rounds: each round
    appends its improving columns ({!Wsn_lp.Problem.add_column}) and
    resumes the simplex from the previous basis — phase 2 only, no
    rebuild.

    [pricer] (default {!Exact}) selects the pricing tier; {!Auto}'s
    greedy rounds price one shard per carrier-sense locality
    component ({!Wsn_conflict.Pricing_greedy.shards}).  [pool] seeds
    the master from a cross-query {!pool} (columns whose links all lie
    in this query's universe) and records every newly priced
    assignment back into it; a pool must only ever be used with one
    model.  Telemetry: [colgen.pool_hits] counts replayed seeds,
    [colgen.pool_inserts] newly recorded assignments.
    @raise Invalid_argument on an empty or repeated-link path.
    @raise Failure under {!Exact} if [max_iterations] (default 1000)
    master solves do not converge (indicates a pricing bug, not a hard
    instance).  {!Auto} is {e anytime}: at the cap it returns the
    current master optimum as an uncertified lower bound instead of
    raising, so a caller can trade wall time for gap. *)

(** {1 Congestion pricing and what-if queries}

    A {e certified} optimum of Equation 6 carries its dual story: the
    binding independent-set time shares are the congestion.  The
    [_sens] entry points additionally return a {!sensitivity} — the
    master tableau kept warm at its optimal basis plus the duals frozen
    at convergence — on which shadow prices are O(1) reads and
    demand-scaling what-ifs are O(m²) basis reuses
    ({!Wsn_lp.Problem.predict_rhs_delta}), falling back to a bounded
    re-pivot only outside the basis-stability range.  Uncertified
    brackets return [None]: a heuristic lower bound has no optimal
    basis to differentiate.  Sensitivity reads never mutate the warm
    master, so interleaving them with further queries is safe. *)

type sensitivity
(** Dual-value view over one certified {!result}. *)

val available_sens :
  ?max_iterations:int ->
  ?pricer:pricer ->
  ?pool:pool ->
  Wsn_conflict.Model.t ->
  background:Flow.t list ->
  path:int list ->
  result option * sensitivity option
(** As {!available} (same arguments, same result), additionally
    returning the dual view when the run converged certified and the
    background is feasible. *)

val sigma_price : sensitivity -> float
(** Shadow price of the total-share budget row: the Mbps of available
    bandwidth one extra unit of schedulable time would buy — the
    congestion price of airtime itself. *)

val link_prices : sensitivity -> (int * float) list
(** Per-link congestion prices in universe order: [(link, price)] where
    [price ≥ 0] is the Mbps of available bandwidth lost per extra Mbps
    of background load on that link (the negated cover-row dual).
    Links of a mutually-conflicting clique saturate together, so the
    binding cliques are exactly the runs of positive prices. *)

val throttle_ranking : sensitivity -> (int * float) list
(** Background flows ranked by what admission would gain from
    squeezing them: [(flow index, gain)] where [-gain] is
    ∂(available bandwidth)/∂(demand of that flow) at the optimum, in
    Mbps per Mbps (the sum of the cover-row duals along the flow's
    path), sorted by descending gain (ties keep flow order).  The head
    is the flow an operator should throttle first to admit more
    traffic on the probed path. *)

val scale_ranging : sensitivity -> int -> float * float
(** [scale_ranging s k] bounds the demand-scaling factor of flow [k]
    over which the optimal basis — hence the linear prediction and all
    prices — stays exact: [lo ≤ 1 ≤ hi] (clamped to [lo ≥ 0]).
    @raise Invalid_argument on a flow index out of range. *)

type whatif = {
  w_mbps : float;
      (** Predicted available bandwidth on the probed path ([0] when
          the scaled background is infeasible). *)
  w_feasible : bool;  (** Whether the scaled background is schedulable. *)
  w_repivoted : bool;
      (** [false]: pure basis reuse (factor inside {!scale_ranging});
          [true]: a snapshotted re-pivot ran. *)
}

val whatif_scale : sensitivity -> int -> factor:float -> whatif
(** [whatif_scale s k ~factor] answers "what if flow [k]'s demand were
    scaled by [factor]?" from the cached basis, without re-running
    column generation and without mutating the warm master.  Exact over
    the column pool frozen at convergence: inside {!scale_ranging} this
    {e is} the Equation-6 optimum restricted to those columns; outside,
    a demand increase may in principle call for columns never priced
    in, so treat large upward factors as a (still useful) upper bound
    on the loss.  Telemetry: [colgen.whatifs],
    [colgen.whatif_repivots].
    @raise Invalid_argument on a flow index out of range or a negative
    or non-finite factor. *)
