(** Explicit standard-form view of a problem, and its LP dual.

    Exposing the matrices lets callers inspect the model the simplex
    actually solves and — more importantly — build the {e dual} problem.
    Solving primal and dual independently and checking that the optima
    agree (strong duality) is an end-to-end correctness certificate for
    the solver that involves no shared code path beyond the tableau. *)

type t = {
  a : float array array;  (** Constraint rows. *)
  b : float array;  (** Right-hand sides. *)
  c : float array;  (** Objective (maximisation). *)
  senses : Wsn_lp.Types.sense array;  (** Row senses. *)
}
(** maximize [c·x] subject to [A_i·x (sense_i) b_i], [x ≥ 0]. *)

val of_canonical : a:float array array -> b:float array -> c:float array -> senses:Wsn_lp.Types.sense list -> t
(** Assemble from plain arrays.
    @raise Invalid_argument on shape mismatches. *)

val solve : t -> Wsn_lp.Tableau.result
(** Run the two-phase simplex on the standard form. *)

val dual : t -> t
(** [dual t] is the LP dual, itself in the same representation:

    - primal max [c·x], rows [A x ≤ b] (after flipping [≥] rows),
      [x ≥ 0] becomes dual min [b·y] = max [−b·y], rows [Aᵀ y ≥ c],
      [y ≥ 0];
    - [Eq] rows give free dual variables, which this representation
      cannot carry, so they are rejected.

    @raise Invalid_argument if [t] contains an [Eq] row. *)

val duality_gap : t -> float option
(** [duality_gap t] solves [t] and [dual t] and returns
    [|primal − dual|]; [None] when either is unbounded or infeasible.
    By strong duality, a correct solver returns values near zero. *)
