(** Upper and lower bounds on path available bandwidth (Section 3).

    The classical clique bound (Equation 7) holds only for a fixed rate
    vector; with time-varying link adaptation it can be exceeded (the
    paper's central negative result, demonstrated by the four-link
    chain).  A valid upper bound mixes per-rate-vector clique-bounded
    throughput vectors (Equation 9).  Lower bounds restrict the LP to a
    subset of independent-set columns (Section 3.3). *)

val fixed_rate_clique_bound :
  Wsn_conflict.Model.t -> path:int list -> rate_of:(int -> Wsn_radio.Rate.t) -> float
(** Equation 7 under one fixed rate vector: the uniform per-link
    throughput [s] satisfies, for every maximal clique [C] of the
    path's links at those rates, [s · Σ_{i∈C} 1/r_i ≤ 1]; the bound is
    the minimum over cliques.  [infinity] when the path has no clique
    of two or more links and no self-constraint applies (never the case
    for a non-empty path: singleton cliques bound [s ≤ r]). *)

val clique_upper :
  Wsn_conflict.Model.t -> background:Flow.t list -> path:int list -> float
(** A cheap upper bound valid under rate adaptation, at any scale.
    Links that {!Wsn_conflict.Model.hard_conflict} conflict at {e
    every} rate pair, so the members of such a {e hard-conflict}
    clique have disjoint airtimes and each clique [C] bounds
    [Σ_{l∈C} (load_l + f·[l∈path]) / best_l ≤ 1].  Greedy maximal
    cliques are grown around every path link; the bound is the minimum
    over them (floored at 0 — an over-committed background proves
    nothing is admittable).  O(|path| · |universe|²) pairwise checks,
    each O(1) on kernel-backed models — the upper bracket for the
    heuristic pricing tier, where Eq. 9's [Z^L] enumeration is
    unreachable.
    @raise Invalid_argument on an empty path. *)

val upper_eq9 :
  ?max_rate_vectors:int ->
  Wsn_conflict.Model.t ->
  background:Flow.t list ->
  path:int list ->
  float option
(** Equation 9: maximise [f] over mixtures [Σ γ_i g_i] of per-rate-
    vector throughput vectors [g_i], each bounded by all maximal clique
    constraints of its rate vector [R_i], covering background demands
    plus [f] along [path].  Enumerates all [Z^L] rate vectors of the
    union's links.  [None] when the background is infeasible.
    @raise Failure when more than [max_rate_vectors] (default 100000)
    vectors would be enumerated. *)

val lower_bound_restricted :
  ?max_sets:int ->
  keep:(Wsn_conflict.Independent.column -> bool) ->
  Wsn_conflict.Model.t ->
  background:Flow.t list ->
  path:int list ->
  float option
(** Section 3.3: solving Equation 6 over the subset of columns selected
    by [keep] shrinks the feasible region, so the optimum is a valid
    lower bound.  [None] when the background cannot be scheduled with
    the kept columns (the true model may still be feasible). *)

val singleton_lower_bound :
  ?max_sets:int -> Wsn_conflict.Model.t -> background:Flow.t list -> path:int list -> float option
(** {!lower_bound_restricted} keeping only single-link columns — pure
    TDMA with no spatial reuse, the weakest useful lower bound. *)
