(** Maximum-weight rate-coupled independent set (the pricing problem of
    column generation).

    Given non-negative link weights [w], find the independent set and
    rate vector maximising [Σ_l w_l · mbps(r_l)].  Solved by branch and
    bound: links are considered in decreasing order of their best-case
    contribution and partial assignments are extended rate by rate.
    The bound comes from the hard-conflict graph of the candidates
    ({!Model.hard_conflict}: pairs that clash at every rate pair),
    built per call and covered greedily by cliques.  At most one
    member of a clique transmits, and none that hard-conflicts with a
    chosen link, so a branch is cut when even the best unblocked
    member of every clique cannot beat the incumbent; blocked links are
    skipped without a feasibility test.  Exponential in the worst case,
    but the weights of an LP master are sparse and interference keeps
    feasible sets small, so in practice this runs far ahead of full
    enumeration.  Counts its search nodes in [pricing.nodes]. *)

val max_weight_independent :
  ?eps:float ->
  Model.t ->
  weights:(int -> float) ->
  universe:int list ->
  (Model.assignment * float) option
(** [max_weight_independent model ~weights ~universe] returns a best
    assignment together with its value, or [None] when no link with
    positive weight can transmit.  Links with weight at most [eps]
    (default [1e-9]) are ignored — they cannot improve the objective
    and only constrain the rest. *)
