(** Incremental builder for linear programs with named variables.

    The bandwidth model creates one variable per independent set (plus
    the flow variable) and one constraint per link; this module keeps
    that construction readable and converts to the standard form required
    by {!Tableau} on solve.  Variables carry optional bounds:

    - a lower bound (default [0.0]; [neg_infinity] makes the variable
      free, handled by splitting into a difference of two non-negative
      variables),
    - an optional upper bound (handled by an extra [≤] row). *)

type t
(** A problem under construction (mutable). *)

type var
(** Handle to a declared variable. *)

val create : ?name:string -> Types.objective -> t
(** [create obj] starts an empty problem optimised in direction [obj]. *)

val name : t -> string
(** Problem name (defaults to ["lp"]). *)

val add_var : t -> ?lower:float -> ?upper:float -> ?obj:float -> string -> var
(** [add_var t name] declares a variable.  [obj] is its objective
    coefficient (default [0.]).  Default bounds are [0 ≤ x].
    @raise Invalid_argument if [upper < lower]. *)

val add_constraint : t -> ?name:string -> (var * float) list -> Types.sense -> float -> unit
(** [add_constraint t terms sense rhs] adds [Σ coeff·var  sense  rhs].
    Repeated variables in [terms] are summed. *)

val var_name : t -> var -> string
(** The name given at declaration. *)

val n_vars : t -> int
(** Number of declared variables. *)

val n_constraints : t -> int
(** Number of added constraints. *)

type solution = {
  objective : float;  (** Objective value in the caller's direction. *)
  values : var -> float;  (** Optimal value of each declared variable. *)
  row_duals : float array;
      (** One dual multiplier per {!add_constraint} call, in call order
          (rows added internally for variable upper bounds are not
          reported).  Multipliers refer to the {e maximisation} form the
          solver works on: for a [Maximize] problem they are the usual
          LP duals; for a [Minimize] problem they price the equivalent
          maximisation of the negated objective. *)
}

type outcome =
  | Solution of solution
  | Unbounded
  | Infeasible

val solve : t -> outcome
(** [solve t] runs the two-phase simplex on the accumulated problem. *)

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
(** [add_column w terms] appends a fresh variable with bounds [0 ≤ x],
    objective coefficient [obj] (default [0.], in the caller's
    direction) and coefficient [c] in the [i]-th {!add_constraint} row
    for each [(i, c)] of [terms].  The returned handle is valid for
    {!resolve} outcomes of [w] only.
    @raise Invalid_argument on an unknown constraint index. *)

val warm_n_vars : warm -> int
(** Total variables visible through [w]: those declared at
    {!solve_warm} time plus every {!add_column} append since.  Lets a
    long-lived session report how much a warm tableau has grown. *)

val resolve : warm -> outcome
(** Re-optimise from the previous basis (phase 2 only): the basis stays
    primal feasible across {!add_column}, so this is much cheaper than
    a fresh {!solve}.  Same optimum as rebuilding, though a degenerate
    tie may pick a different optimal basis. *)

(** {1 Sensitivity}

    Post-optimal queries on a warm handle whose last {!solve_warm} /
    {!resolve} returned [Solution _].  None of them mutate the handle:
    predictions that leave the basis-stability range re-pivot a
    snapshot and roll back, so subsequent {!resolve} calls still see
    the unperturbed problem. *)

type prediction = {
  predicted : outcome;  (** Outcome of the perturbed problem. *)
  repivoted : bool;
      (** [false] when the answer came from the factorized basis alone
          (perturbation inside the stability range); [true] when a
          bounded re-pivot ran. *)
}

val warm_basis : warm -> int array
(** Opaque fingerprint of the current optimal basis (per-row basic
    column indices); equal arrays across calls mean the basis — and
    with it every sensitivity range — did not move. *)

val warm_duals : warm -> float array
(** Duals of the current basis, same convention and order as
    [row_duals] — one per {!add_constraint} row, maximisation form —
    without re-running {!resolve}. *)

val warm_reduced_cost : warm -> var -> float
(** Reduced cost [y·a − c] of a variable's column in the maximisation
    form: [≥ 0] at the optimum, [0] if basic; the rate at which the
    (maximisation) objective falls per unit of forced increase.
    @raise Invalid_argument on an unknown or free variable. *)

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

val obj_ranging : warm -> var -> float * float
(** Interval of changes to a variable's objective coefficient (caller
    direction) over which the current basis stays optimal;
    [lo ≤ 0 ≤ hi], unbounded on the side that only makes the variable
    less attractive.
    @raise Invalid_argument on an unknown or free variable. *)

val predict_obj_delta : warm -> var -> delta:float -> prediction
(** Optimum after adding [delta] (caller direction) to a variable's
    objective coefficient; analytic inside {!obj_ranging}, snapshotted
    re-pivot outside.
    @raise Invalid_argument on an unknown or free variable. *)

val value_exn : outcome -> var -> float
(** [value_exn o v] extracts a variable value.
    @raise Failure if [o] is not [Solution _]. *)

val objective_exn : outcome -> float
(** [objective_exn o] extracts the optimal objective.
    @raise Failure if [o] is not [Solution _]. *)

val pp : Format.formatter -> t -> unit
(** Human-readable dump of the model (for debugging). *)
