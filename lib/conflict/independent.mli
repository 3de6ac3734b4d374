(** Rate-coupled independent sets and the LP columns they induce.

    Section 2.4: an independent set is a set of links coupled with a
    rate vector such that all links succeed concurrently.  Proposition 3
    reduces the feasibility condition to maximal independent sets with
    maximum supported rate vectors; because in a multirate network the
    vector of a {e subset} need not be dominated by any superset's
    vector (the paper's central observation), the column set here is the
    global Pareto frontier over {e all} independent sets, which contains
    every maximal independent set's maximum vector and spans the same
    feasible region. *)

type column = {
  links : int list;  (** Members of the set, ascending. *)
  rates : Wsn_radio.Rate.t list;  (** Rates aligned with [links]. *)
  mbps : float array;  (** Dense throughput vector over the universe passed to {!columns}, Mbit/s, zero off-set. *)
}

val enumerate_sets : ?max_sets:int -> Model.t -> universe:int list -> int list list
(** [enumerate_sets model ~universe] lists every non-empty independent
    subset of [universe] (each ascending in link id).  Links with no
    alone rate never appear.
    @raise Failure when more than [max_sets] (default 200000) sets
    exist, as a combinatorial-explosion guard. *)

val feasible_assignments : Model.t -> int list -> Model.assignment list
(** All feasible all-positive rate assignments over a set (exponential
    in the set size; sets here are small). *)

val pareto_vectors : Model.t -> int list -> Wsn_radio.Rate.t list list
(** Pareto-maximal feasible rate assignments over a set, as rate lists
    aligned with the (ascending) set.  Under a unique-maximum model this
    is a single vector. *)

val columns :
  ?max_sets:int -> ?filter_dominated:bool -> Model.t -> universe:int list -> column list
(** [columns model ~universe] is the dominance-filtered set of
    throughput vectors of all independent sets of [universe]: the LP
    columns of the bandwidth model (Equation 4/6).  A column [c] is kept
    unless some other column is component-wise at least [c] and larger
    somewhere.  [~filter_dominated:false] keeps every (deduplicated)
    Pareto vector — required when a caller restricts the column set
    further and still needs per-set coverage (Section 3.3 lower
    bounds).

    With a kernel-backed model ({!Model.physical}) the result — like
    {!enumerate_sets}'s — is memoised per universe for
    the lifetime of the kernel (admission re-queries the same universes
    under every metric); callers must treat the returned columns,
    including their [mbps] arrays, as immutable. *)
