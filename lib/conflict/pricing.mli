(** Maximum-weight rate-coupled independent set (the pricing problem of
    column generation).

    Given non-negative link weights [w], find the independent set and
    rate vector maximising [Σ_l w_l · mbps(r_l)].  Solved by branch and
    bound over the candidates in decreasing order of their best-case
    contribution.

    On a kernel-backed model ({!Model.physical}) the search branches on
    link sets: each candidate a {!Kernel.Inc} state accepts opens one
    child, valued at the set's maximum supported rate vector (summed in
    insertion order).  Under SINR that vector follows from the set
    alone and is worth at least any other feasible vector of it, so
    nothing is lost.  Equal values are broken toward the
    lexicographically smaller list of (candidate position, rate),
    a prefix before its extensions — the order in which a search
    branching on every rate meets them — so the column returned is the
    one rate branching returns.  Without a kernel (declared models, the
    test oracle [Wsn_oracles.Physical_naive]) the search branches on
    every alone rate of each candidate and tests each extension with
    {!Model.feasible}: a declared predicate need not be monotone in
    rate, so a set's best vector cannot be read off the set.  That path
    is the oracle of the set search.

    The bound comes from the hard-conflict graph of the candidates
    ({!Model.hard_conflict}: pairs that clash at every rate pair, a
    memo read per pair on kernel-backed models), built per call and
    covered greedily by cliques.  At most one
    member of a clique transmits, and none that hard-conflicts with a
    chosen link, so a branch is cut when even the best unblocked
    member of every clique cannot beat the incumbent; blocked links are
    skipped without a feasibility test.  Members' rates only fall as
    links join, so the bound holds for set branching too.  Exponential
    in the worst case, but the weights of an LP master are sparse and
    interference keeps feasible sets small, so in practice this runs
    far ahead of full enumeration.  Counts its search nodes in
    [pricing.nodes]. *)

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
