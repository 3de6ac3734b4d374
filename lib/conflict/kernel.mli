(** Precomputed conflict kernel over a physical (SINR) topology.

    A from-scratch physical model recomputes, for every feasibility query,
    the pairwise node distances, received powers and SINR of every link
    in the candidate set — O(|set|²) transcendental evaluations per
    call, repeated exponentially often by the independent-set
    enumerator, the clique walk and the pricing branch-and-bound.  The
    kernel hoists everything that depends only on the topology out of
    the loop, once per topology:

    - the per-link received signal power and per-rate sensitivity
      verdicts (Equation 1, first condition);
    - the pairwise interference power [interf(i, j)]: power reaching
      link [j]'s receiver from link [i]'s transmitter (the summands of
      Equation 3);
    - the half-duplex adjacency of every link as a {!Bitset.t};
    - the linear SNR requirement of every rate (Equation 1, second
      condition).

    A feasibility query then reduces to O(words) bitset intersections
    plus one addition and a handful of float compares per link — no
    distances, no powers.  Whole-set maximum rate vectors are further
    memoised per link set, and an incremental {!Inc} state supports the
    enumerators' add-one-link/undo discipline in O(|set|) with no
    re-validation of the prefix (anti-monotonicity, Proposition 1).

    All numeric paths reproduce the from-scratch model's float
    operations exactly (same powers, same SNR compares, same summation
    order for ascending sets), so results are bit-compatible with the
    test oracle [Wsn_oracles.Physical_naive]. *)

type t

val create : Wsn_net.Topology.t -> t
(** Precompute the kernel: O(links · degree) work, once per topology.
    Pairwise interference rows are materialised lazily on first touch
    (and published atomically, so concurrent views may share them), so
    memory scales with the links actually queried rather than the full
    O(links²) matrix — the difference between ~800 MB and a few MB on
    thousand-node topologies.  The {!hard_conflict} memo is one array
    of empty rows here; a row is allocated on its link's first query. *)

val n_links : t -> int

val topology : t -> Wsn_net.Topology.t
(** The topology the kernel was built from (for locality partitioning
    by carrier-sense reach; see {!Pricing_greedy.shards}). *)

val rates : t -> Wsn_radio.Rate.table

val alone_rates : t -> int -> Wsn_radio.Rate.t list
(** Rates the link supports alone, fastest first (Equation 1). *)

val hard_conflict : t -> int -> int -> bool
(** [hard_conflict k i j] is whether the two links can never transmit
    together, at any rates: they share an endpoint (half-duplex), or
    one of them supports no rate under the other's interference.
    Interference power is rate-independent and slower rates need less
    SNR, so this is exactly {!Model.interferes} at the two links'
    slowest alone rates — without {!Model.feasible}'s validation or the
    whole-set memo.  Symmetric; a link hard-conflicts with itself.

    The verdict is computed once per pair and kernel: it is filled
    lazily into per-link byte rows (unknown / compatible / conflict),
    written to both links' rows, and a row is allocated on its link's
    first query.  {!fork} views share the rows.  Concurrent fills race
    without locks, but every byte only ever goes from unknown to the
    pair's one true verdict, so a racing query sees that verdict or
    unknown — a lost fill is recomputed, never wrong.
    @raise Invalid_argument when a link is out of range. *)

val max_vector : t -> int list -> Wsn_radio.Rate.t array option
(** Maximum supported rate vector of a concurrent set, indexed like the
    argument; [None] when the set is not independent (half-duplex
    violation, repeated link, or some link left with no rate).
    Memoised per link set. *)

val feasible : t -> (int * Wsn_radio.Rate.t) list -> bool
(** Whether the assignment's rates are all at-or-below the set's
    maximum vector.  Performs no argument validation (callers go
    through {!Model.feasible}). *)

val fork : t -> t
(** A worker-local view: shares every precomputed (read-only) table
    and the {!hard_conflict} memo with the parent but owns fresh, empty
    whole-set and scratch stores, so concurrent queries on distinct
    views never race on a hash table.  Entries memoised in a view
    are pure functions of the kernel; fold them back with {!merge}. *)

val merge : into:t -> t -> unit
(** [merge ~into view] adds the rate-vector memo entries of [view]
    absent from [into] (entries are pure, so which duplicate wins is
    irrelevant).  The scratch stores are not merged.
    @raise Invalid_argument when the views derive from different
    kernels. *)

val scratch : t -> (string, exn) Hashtbl.t
(** Per-kernel memo store for higher layers of the conflict library
    (a universal type via exception constructors: each client declares
    its own exception carrying its cache and claims one key).  Results
    memoised here are pure functions of the kernel, so the store is
    sound for the kernel's whole lifetime. *)

(** Incremental independent-set construction: grow a set one link at a
    time, checking only the new link against the running partial set
    and updating every member's interference sum and maximum rate in
    O(|set|).  Backtracking ([undo]) restores the exact previous
    floats, so DFS enumeration is bit-stable: every add pushes the
    earlier members' sums and rates on one flat undo stack (the
    [d]-th member's add saves [d - 1] entries) and undo pops them.  A
    state's member arrays start at eight entries, its stack at the
    frames of eight members, and both double as the set grows, so
    {!Inc.start} allocates those and one link bitset, not arrays with
    an entry per link — and once grown, no add, undo or cache reload
    allocates. *)
module Inc : sig
  type state

  val start : t -> state
  (** Fresh empty state. *)

  val add : state -> int -> bool
  (** [add st l] tries to extend the set with link [l].  Returns
      [false] (state unchanged) when [l] violates half-duplex against
      the set, supports no rate under the set's interference, or
      starves some member of its last rate.  On [true] the state now
      includes [l] with every member's maximum rate updated. *)

  val add_sorted : state -> int -> bool
  (** As {!add}, for callers that insert links in strictly ascending
      order (the DFS enumerators): insertion order then coincides with
      the whole-set cache's canonical order, so the attempt consults —
      and on a miss populates — the {!max_vector} memo, skipping all
      SINR work for sets any earlier enumeration or whole-set query has
      touched.  Verdicts and resulting state are bit-identical to
      {!add}.
      @raise Invalid_argument when [l] is not greater than the last
      member. *)

  val undo : state -> unit
  (** Revert the most recent successful {!add} or {!add_sorted}.
      @raise Invalid_argument when the set is empty. *)

  val size : state -> int

  val member : state -> int -> int
  (** [member st p] is the link added [p]-th (insertion order). *)

  val max_rate : state -> int -> Wsn_radio.Rate.t
  (** [max_rate st p] is the current maximum supported rate of the
      [p]-th member under the whole set's interference. *)

  val members : state -> int list
  (** Links in insertion order. *)
end
