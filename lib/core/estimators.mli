(** Distributed estimators of path available bandwidth (Section 4).

    Each estimator sees only what a node can measure locally: the
    effective data rate [r_i] of every path link and the channel
    idleness [λ_i] its endpoints sense (Equation 10), plus the local
    interference cliques of the path.  Cliques are given as lists of
    indices into the observation array. *)

type link_obs = {
  rate_mbps : float;  (** Effective data rate of the link. *)
  idleness : float;  (** Usable idle share [λ_i ∈ [0,1]] (Equation 10). *)
}

type t = link_obs array
(** Per-link observations in path order. *)

val validate : t -> unit
(** @raise Invalid_argument on empty observations, non-positive rates
    or idleness outside [\[0,1\]]. *)

val bottleneck : t -> float
(** Equation 10, "bottleneck node bandwidth": [min_i λ_i · r_i].
    Ignores interference along the path. *)

val clique_constraint : cliques:int list list -> t -> float
(** Equation 11, "clique constraint":
    [min_C 1 / Σ_{i∈C} 1/r_i].  Ignores background traffic. *)

val min_clique_bottleneck : cliques:int list list -> t -> float
(** Equation 12: the smaller of {!clique_constraint} and
    {!bottleneck}. *)

val conservative : cliques:int list list -> t -> float
(** Equation 13, "conservative clique constraint": within each clique,
    order idleness increasingly ([λ_(1) ≤ ... ≤ λ_(|C|)]) and bound
    [f ≤ min_i λ_(i) / Σ_{j≤i} 1/r_(j)]; take the minimum over
    cliques.  Models the pessimistic case where a link's idle share is
    consumed by every clique member with less idleness. *)

val expected_clique_time : cliques:int list list -> t -> float
(** Equation 15, "expected clique transmission time":
    [1 / max_C Σ_{i∈C} 1/(λ_i r_i)]; zero when some clique member has
    zero idleness. *)

type all = {
  bottleneck : float;
  clique_constraint : float;
  min_clique_bottleneck : float;
  conservative : float;
  expected_clique_time : float;
}

val all : cliques:int list list -> t -> all
(** All five estimators at once (the series of Fig. 4). *)

val names : string list
(** Labels of the five estimators in {!all}'s field order, paper
    equation numbers included: ["bottleneck(10)"], ["clique(11)"],
    ["min(12)"], ["conservative(13)"], ["expected-T(15)"]. *)

val values : all -> float list
(** The five values of an {!all}, in {!names} order. *)

val mean_abs_errors : (all * float) list -> (string * float) list
(** [mean_abs_errors pairs] labels, by {!names}, the mean
    [|estimate − truth|] of each estimator over [(estimates, truth)]
    pairs, summed in list order; [nan] each when [pairs] is empty. *)
