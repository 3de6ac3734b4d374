(** Incremental builder for the linear programs of this repository.

    Every LP the bandwidth model builds has one shape: non-negative
    time shares λ_α plus flow variables, each [0 ≤ x] with an objective
    coefficient and no upper bound, under sense-tagged rows.  This
    module accumulates such a problem and hands it to {!Tableau} as a
    dense standard form on solve.  A variable handle is its column:
    declared variable [v] is column [v], and the [k]-th {!add_column}
    of a warm handle is column [n + k] after [n] declared variables. *)

type t
(** A problem under construction (mutable). *)

type var
(** Handle to a declared or appended variable. *)

val create : Types.objective -> t
(** [create obj] starts an empty problem optimised in direction [obj]. *)

val add_var : ?obj:float -> t -> var
(** [add_var t] declares a variable [0 ≤ x] with objective coefficient
    [obj] (default [0.]). *)

val add_constraint : t -> (var * float) list -> Types.sense -> float -> unit
(** [add_constraint t terms sense rhs] adds [Σ coeff·var  sense  rhs].
    Repeated variables in [terms] are summed.
    @raise Invalid_argument on a variable not declared in [t]. *)

type solution = {
  objective : float;  (** Objective value in the caller's direction; never [-0.]. *)
  values : var -> float;
      (** Optimal value of each variable; never [-0.].
          @raise Invalid_argument on a handle outside the solved problem. *)
  row_duals : float array;
      (** One dual multiplier per {!add_constraint} call, in call order.
          Multipliers refer to the {e maximisation} form the solver
          works on: for a [Maximize] problem they are the usual LP
          duals; for a [Minimize] problem they price the equivalent
          maximisation of the negated objective. *)
}

type outcome =
  | Solution of solution
  | Unbounded
  | Infeasible

val solve : t -> outcome
(** [solve t] runs the two-phase simplex (Dantzig pricing) on the
    accumulated problem. *)

type warm
(** A solved problem kept warm so column generation can append one
    variable at a time without rebuilding or re-solving from scratch
    (see {!Tableau.add_column}). *)

val solve_warm : t -> outcome * warm option
(** As {!solve}, additionally returning a warm handle when the problem
    is optimal ([None] otherwise).  Mutating [t] afterwards does not
    affect the handle.  Every {!resolve} on the handle runs Devex
    pricing with degenerate-pivot perturbation ({!Tableau.solve_open}'s
    defaults) and returns exact optima of the unperturbed problem. *)

val add_column : warm -> ?obj:float -> (int * float) list -> var
(** [add_column w terms] appends a fresh variable [0 ≤ x] with
    objective coefficient [obj] (default [0.], in the caller's
    direction) and coefficient [c] in the [i]-th {!add_constraint} row
    for each [(i, c)] of [terms].  The returned handle is valid for
    {!resolve} outcomes of [w] only.
    @raise Invalid_argument on an unknown constraint index (before
    anything is appended). *)

val resolve : warm -> outcome
(** Re-optimise from the previous basis (phase 2 only): the basis stays
    primal feasible across {!add_column}, so this is much cheaper than
    a fresh {!solve}.  Same optimum as rebuilding, though a degenerate
    tie may pick a different optimal basis. *)

(** {1 Sensitivity}

    Post-optimal queries on a warm handle whose last {!solve_warm} /
    {!resolve} returned [Solution _].  None of them mutate the handle:
    a prediction that leaves the basis-stability range re-pivots a
    snapshot and rolls back, so subsequent {!resolve} calls still see
    the unperturbed problem. *)

type prediction = {
  predicted : outcome;  (** Outcome of the perturbed problem. *)
  repivoted : bool;
      (** [false] when the answer came from the factorized basis alone
          (perturbation inside the stability range); [true] when a
          bounded re-pivot ran. *)
}

val warm_duals : warm -> float array
(** Duals of the current basis, same convention and order as
    [row_duals] — one per {!add_constraint} row, maximisation form —
    without re-running {!resolve}. *)

val warm_reduced_cost : warm -> var -> float
(** Reduced cost [y·a − c] of a variable's column in the maximisation
    form: [≥ 0] at the optimum, [0] if basic; the rate at which the
    (maximisation) objective falls per unit of forced increase.
    @raise Invalid_argument on an unknown variable. *)

val rhs_ranging : warm -> dir:(int * float) list -> float * float
(** [rhs_ranging w ~dir] bounds the step [t] of the right-hand-side
    move [rhs + t·dir] ([dir] sparse over {!add_constraint} rows) over
    which the current basis stays optimal; [lo ≤ 0 ≤ hi].  Inside the
    range duals are constant and the optimum is linear in [t].
    @raise Invalid_argument on an unknown constraint index. *)

val predict_rhs_delta : warm -> dir:(int * float) list -> t:float -> prediction
(** Optimum of the problem with right-hand side [rhs + t·dir]: O(m²)
    arithmetic on the cached basis inside the {!rhs_ranging} interval,
    a snapshotted dual-simplex re-pivot outside ([repivoted = true]).
    @raise Invalid_argument on an unknown constraint index. *)

val objective_exn : outcome -> float
(** [objective_exn o] extracts the optimal objective.
    @raise Failure if [o] is not [Solution _]. *)
