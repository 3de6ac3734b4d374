(** Conflict models: which sets of links can transmit concurrently, and
    at which rates.

    A model answers one question — {e is a given simultaneous rate
    assignment feasible?} — from which the library derives independent
    sets (§2.4 of the paper), cliques (§3.1), and the LP columns of the
    bandwidth model.  Two constructions are provided:

    - {!physical}: feasibility by SINR (Equations 1 and 3) over a
      geometric {!Wsn_net.Topology.t}.  For a fixed concurrent set the
      maximum supported rate vector is unique, which the enumerators
      exploit via {!max_vector}.
    - {!declared}: feasibility by an explicit pairwise, rate-dependent
      interference predicate, as used by the hand-built scenarios of
      Fig. 1 where the paper states interference by fiat. *)

type assignment = (int * Wsn_radio.Rate.t) list
(** A simultaneous rate assignment: distinct links paired with rates. *)

type t
(** A conflict model over links [0 .. n_links-1]. *)

val create :
  n_links:int ->
  rates:Wsn_radio.Rate.table ->
  alone_rates:(int -> Wsn_radio.Rate.t list) ->
  feasible:(assignment -> bool) ->
  ?max_vector:(int list -> Wsn_radio.Rate.t array option) ->
  unit ->
  t
(** [create ~n_links ~rates ~alone_rates ~feasible ()] builds a model.
    [alone_rates l] lists the rates link [l] supports when transmitting
    alone (fastest first; empty for a dead link).  [feasible] must be
    anti-monotone: any sub-assignment of a feasible assignment is
    feasible.  [max_vector], when given, must return the unique maximum
    supported rate vector of a concurrent set ([None] when the set
    cannot all transmit), and is used as a fast path. *)

val physical : Wsn_net.Topology.t -> t
(** SINR-derived model over a topology; link ids are the topology's.
    Backed by a precomputed {!Kernel.t} (distance/interference tables,
    half-duplex bitsets, memoised rate vectors), so repeated
    feasibility queries cost array lookups instead of fresh SINR
    evaluations.  Results agree with {!physical_naive}. *)

val physical_naive : Wsn_net.Topology.t -> t
(** The reference SINR model: every query recomputes distances, powers
    and SINR from scratch.  Semantically identical to {!physical};
    kept as the oracle for the kernel's property tests and as the
    benchmark baseline. *)

val kernel : t -> Kernel.t option
(** The precomputed kernel behind a {!physical} model, when there is
    one — the enumerators use it for incremental O(words) feasibility;
    [None] for declared and naive models. *)

val declared :
  n_links:int ->
  rates:Wsn_radio.Rate.table ->
  alone_rates:(int -> Wsn_radio.Rate.t list) ->
  interferes:(int * Wsn_radio.Rate.t -> int * Wsn_radio.Rate.t -> bool) ->
  t
(** Pairwise model: an assignment is feasible iff each rate is
    alone-supported and no two couples interfere.  [interferes] must be
    symmetric. *)

val n_links : t -> int
(** Number of links. *)

val rates : t -> Wsn_radio.Rate.table
(** The rate table in force. *)

val alone_rates : t -> int -> Wsn_radio.Rate.t list
(** Rates a link supports alone, fastest first. *)

val alone_best : t -> int -> Wsn_radio.Rate.t option
(** Fastest alone rate, [None] for a dead link. *)

val feasible : t -> assignment -> bool
(** Feasibility of a simultaneous assignment.
    @raise Invalid_argument on repeated links or out-of-range ids. *)

val interferes : t -> int * Wsn_radio.Rate.t -> int * Wsn_radio.Rate.t -> bool
(** [interferes t a b] is whether the two couples cannot both succeed
    concurrently (the paper's pairwise interference, §3.1).  Couples on
    the same link trivially interfere. *)

val hard_conflict : t -> int -> int -> bool
(** [hard_conflict t i j] is whether links [i] and [j] interfere at
    {e every} pair of their alone rates, so that at most one of them
    transmits at any instant (a {e hard} conflict, the edges of the
    conflict cliques of §3.1).  Kernel-backed models answer with
    {!Kernel.hard_conflict} in O(1); other models test each rate pair
    with {!interferes}.  Vacuously true when either link is dead.
    @raise Invalid_argument on out-of-range ids. *)

val max_vector : t -> int list -> Wsn_radio.Rate.t array option
(** [max_vector t set] is the per-link maximum supported rate vector of
    a concurrent set when it is unique ([physical] models), indexed like
    [set]; [None] when the set is not independent.  For models without a
    unique maximum this computes a Pareto-maximal vector and is only a
    witness — use {!Independent.pareto_vectors} for completeness. *)

val independent : t -> int list -> bool
(** Whether some all-positive-rate assignment over the set is feasible. *)

val fork_view : t -> t
(** [fork_view t] is a worker-local view of [t] for use from another
    domain: kernel-backed models get a {!Kernel.fork} (shared read-only
    tables, fresh memo stores, so concurrent use never races); models
    with no kernel are returned unchanged — safe as long as their
    closures are pure, which {!declared} and {!physical_naive} are. *)

val has_unique_max : t -> bool
(** Whether {!max_vector} is exact (unique maximum supported rate
    vector per set), as in {!physical} models. *)

val pairwise_approximation : t -> t
(** [pairwise_approximation t] is the {e protocol-model} view of [t]: a
    declared model whose pairwise interference is exactly [t]'s, losing
    all cumulative (more-than-two-interferer) SINR effects.  Feasibility
    under the approximation is implied by feasibility under [t], so
    bandwidth computed on it over-estimates; the gap measures how much
    the protocol-model simplification costs (experiment E13). *)
