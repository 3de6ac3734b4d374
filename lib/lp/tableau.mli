(** Two-phase primal simplex on standard-form problems.

    Solves
    {v
      maximize    c · x
      subject to  A_i · x  (sense_i)  b_i     for every row i
                  x ≥ 0
    v}
    with a dense tableau.  Phase 1 minimises the sum of artificial
    variables to find a basic feasible solution; phase 2 optimises the
    real objective.  Entering columns follow Dantzig's rule and fall
    back to Bland's rule after a stall threshold, which guarantees
    termination.  Tolerances are absolute ([1e-9]); the LPs of this
    repository are small and well-scaled. *)

type pricing =
  | Dantzig
      (** Most-negative reduced cost, Bland fallback after a stall: the
          reference arm, bit-reproducible against the former row-major
          matrix tableau. *)
  | Devex
      (** Reference-weight (Devex) pricing with a candidate-list partial
          scan — far fewer pivots on degenerate masters.  Same optimum;
          the optimal basis (and float round-off) may differ. *)

type result =
  | Optimal of {
      x : float array;
      objective : float;
      duals : float array;
          (** One dual multiplier per input row (order preserved):
              [Σ_i duals.(i) · b.(i) = objective] at the optimum (strong
              duality), and for every column [j],
              [Σ_i duals.(i) · a.(i).(j) ≥ c.(j)] (dual feasibility).
              Used by column generation to price candidate columns. *)
    }  (** Optimal primal solution and objective value. *)
  | Unbounded  (** The objective is unbounded above. *)
  | Infeasible  (** No point satisfies all constraints. *)

val solve :
  a:float array array ->
  b:float array ->
  c:float array ->
  senses:Types.sense array ->
  result
(** [solve ~a ~b ~c ~senses] maximises [c·x] subject to the rows of
    [a]/[b]/[senses] and [x ≥ 0].  [a] is read, never written: rows
    with a negative right-hand side are negated into fresh arrays.
    @raise Invalid_argument on ragged rows in [a] (or rows whose length
    is not that of [c]) and on a [b] or [senses] length other than the
    row count.
    @raise Failure if the iteration cap is exceeded (indicates a bug). *)

(** {1 Warm-started column generation}

    Column generation re-solves the same master many times, each time
    with one extra column.  [solve_open] keeps the solved tableau;
    [add_column] prices a single new column into it (O(m²), no
    refactorisation — the per-row signature columns hold B⁻¹e_i under
    the current basis); [reoptimize] resumes the simplex from the
    previous basis, which stays primal feasible across appends, so only
    phase 2 runs. *)

type state
(** A solved tableau retained for incremental column appends. *)

val solve_open :
  ?pricing:pricing ->
  ?perturb:bool ->
  a:float array array ->
  b:float array ->
  c:float array ->
  senses:Types.sense array ->
  unit ->
  result * state option
(** As {!solve}, additionally returning the warm state when the problem
    is optimal ([None] on [Infeasible]/[Unbounded]).  [pricing]
    (default [Devex]) and [perturb] (default [true]: {!reoptimize} may
    perturb degenerate right-hand sides; the clean-up pass restores
    exact feasibility, so results are still exact optima of the
    unperturbed problem) govern every subsequent {!reoptimize} on the
    returned state; the initial cold solve always runs the Dantzig
    reference path. *)

val add_column : state -> coeffs:(int * float) list -> cost:float -> int
(** [add_column st ~coeffs ~cost] appends a non-negative structural
    column with constraint coefficients [coeffs] (sparse, in original
    row order and sign) and objective coefficient [cost], returning its
    index into the [x] vector of subsequent {!reoptimize} results
    (appended columns follow the original [n]).
    @raise Invalid_argument on a row index out of range. *)

val reoptimize : state -> result
(** Re-run phase 2 from the current basis.  [x] in the result has
    [n + appended] entries; [duals] follow the {!solve} convention.
    Under [Devex] pricing the entering column maximises the Devex score
    over a 64-column candidate list; under either pricing the Bland
    stall threshold is reset on every entry (per resolve, never across
    the state's lifetime).  With [perturb] on, resolves that start from
    a heavily degenerate basis shift the zero right-hand sides by tiny
    deterministic amounts and restore exact feasibility afterwards
    (rolling back to the unperturbed tableau if the clean-up fails), so
    the returned optimum is always an optimum of the exact problem. *)

(** {1 Sensitivity analysis}

    Post-optimal queries on a solved state.  All of them read the
    optimal basis through the signature columns (which hold B⁻¹e_i), so
    a query costs O(m²) arithmetic and no pivots; the [predict_*]
    entry points additionally fall back to a bounded re-pivot behind a
    full snapshot/rollback when the perturbation leaves the optimality
    range, so the state observable through {!reoptimize} is never
    changed by a prediction.  Row indices refer to the original
    constraint order and sign of {!solve_open}; x indices follow the
    {!reoptimize} result layout (originals then appended). *)

val basis_snapshot : state -> int array
(** Per-row basic column indices of the current optimal basis (a copy;
    entries index the internal tableau columns and are meaningful for
    comparing bases across resolves, not for reading coefficients). *)

val dual_values : state -> float array
(** One dual per input row, identical to the [duals] of the last
    {!reoptimize} result: [Σ_i duals.(i)·b.(i) = objective]. *)

val objective_value : state -> float
(** Current objective cell (maximisation form). *)

val reduced_cost_of : state -> int -> float
(** [reduced_cost_of st xi] is the z-row entry [y·a_j − c_j] of the
    column behind x index [xi] — [≥ 0] at the optimum, [0] on basic
    columns; the rate at which the objective would {e fall} per unit of
    forced increase of a nonbasic [x.(xi)].
    @raise Invalid_argument if [xi] is out of range. *)

val rhs_ranging : state -> dir:(int * float) list -> float * float
(** [rhs_ranging st ~dir] bounds the step [t] of the right-hand-side
    perturbation [b + t·dir] ([dir] sparse over input rows, original
    sign) over which the current basis stays optimal: inside
    [(lo, hi)] (with [lo ≤ 0 ≤ hi]) the duals are constant and the
    optimum moves linearly in [t].
    @raise Invalid_argument on a row index out of range. *)

val predict_rhs : state -> dir:(int * float) list -> t:float -> result * bool
(** [predict_rhs st ~dir ~t] evaluates the optimum of the problem with
    right-hand side [b + t·dir].  Inside the {!rhs_ranging} interval
    this is pure arithmetic on the factorized basis (flag [false]);
    outside, a snapshotted dual-simplex re-pivot computes the exact new
    optimum and rolls the tableau back (flag [true]).  Either way [st]
    still describes the unperturbed problem afterwards. *)

val cost_ranging : state -> int -> float * float
(** [cost_ranging st xi] bounds the change [δ] of the objective
    coefficient of x index [xi] (maximisation form) over which the
    current basis stays optimal, [lo ≤ 0 ≤ hi] ([lo = -∞] on a
    nonbasic column, whose coefficient may fall freely). *)

val predict_cost : state -> col:int -> delta:float -> result * bool
(** [predict_cost st ~col ~delta] evaluates the optimum after adding
    [delta] to the objective coefficient of x index [col]
    (maximisation form).  Inside the {!cost_ranging} interval the basis
    and primal solution are unchanged (flag [false], objective and
    duals adjusted analytically); outside, a snapshotted primal
    re-pivot computes the exact optimum and rolls back (flag [true]). *)
