(** Checking the classical clique constraint against a throughput
    vector (Section 3.2).

    For a fixed rate vector [R], every clique [C] bounds a feasible
    throughput vector [Y] by [T_C = Σ_{k∈C} y_k / r_k ≤ 1].  The paper's
    Hypothesis (8) claims that with link adaptation at least one rate
    vector keeps the {e maximum} clique time within one — and is false:
    this module computes the quantities that falsify it. *)

type report = {
  rate_of : int -> Wsn_radio.Rate.t;  (** The rate vector examined. *)
  max_clique_time : float;  (** [T̂ = max_C Σ y/r] over maximal cliques. *)
  worst_clique : int list;  (** A clique attaining the maximum. *)
}

val max_clique_time :
  Wsn_conflict.Model.t ->
  universe:int list ->
  throughput:(int -> float) ->
  rate_of:(int -> Wsn_radio.Rate.t) ->
  report
(** The maximum clique time and a witness clique.
    @raise Invalid_argument when [universe] is empty. *)

val hypothesis_min_max_time :
  Wsn_conflict.Model.t ->
  universe:int list ->
  throughput:(int -> float) ->
  report
(** The left-hand side of Hypothesis (8): the minimum over all rate
    vectors of the maximum clique time, with the minimising vector.
    The hypothesis holds for [throughput] iff the result's
    [max_clique_time ≤ 1]; Scenario II's optimum yields 1.05.
    @raise Failure beyond 100000 rate vectors. *)
