(** One admission-control session: a resident topology + conflict
    kernel, the set of currently admitted flows, and the incremental
    solver state that makes repeated queries cheap.

    A [Warm] session reuses work across requests three ways:

    - the background schedule (minimum-airtime cover of the admitted
      flows, the input to idleness-aware routing) is cached and only
      recomputed when the flow set changes;
    - availability LPs run through {!Wsn_availbw.Column_gen} warm
      masters ([Problem.solve_warm]/[add_column]/[resolve]) seeded from
      a session-wide column {!Wsn_availbw.Column_gen.pool}, so columns
      priced in by earlier queries are replayed instead of re-priced;
    - exact repeats (same ordered background, same path) are answered
      from a transcript memo without touching the LP.

    A [Cold] session is the reference: every request recomputes the
    schedule and solves the full enumeration LP
    ({!Wsn_availbw.Path_bandwidth.available}) from scratch.  Both modes
    decide admission on the unrounded optimum with a [1e-6] margin and
    print it quantised to the wire precision ({!Protocol.mbps}), so
    their response transcripts are byte-equal — the invariant the
    bench gates.

    [whatif] and [prices] requests sit outside that byte-identity
    contract: a [Warm] session answers them from the dual view of the
    last certified optimum ({!Wsn_availbw.Column_gen.whatif_scale} —
    basis reuse, no re-solve), while [Cold] re-solves each scaled
    instance; outside the basis-stability range the prediction is a
    bound, and duals are not unique under degeneracy.  [exact:true]
    forces the re-solving path in either mode.  Within one session,
    batched and sequential whatif queries are answered identically.

    Sessions are single-threaded; for concurrent serving give each its
    own session over {!Wsn_conflict.Model.fork_view}. *)

type mode = Warm | Cold

type t

val create :
  ?metric:Wsn_routing.Metrics.t ->
  ?pricer:Wsn_availbw.Column_gen.pricer ->
  ?shards:int ->
  ?lp_pricing:Wsn_availbw.Column_gen.lp_pricing ->
  ?stabilize:bool ->
  mode:mode ->
  topo:Wsn_net.Topology.t ->
  model:Wsn_conflict.Model.t ->
  unit ->
  t
(** [create ~mode ~topo ~model ()] starts an empty session.  [metric]
    (default [Average_e2e_delay], the paper's best router) drives path
    selection for admits and queries.  [pricer] (default
    {!Wsn_availbw.Column_gen.Exact}) selects the pricing tier for a
    [Warm] session's column-generation queries, [shards] its
    heuristic shard cap; on Fig.-2-scale topologies [Auto] answers
    byte-identically to [Exact] (the universe stays within the exact
    fallback's ceiling) while scaling to topologies the exact pricer
    cannot touch.  [lp_pricing] (default [Devex]) and [stabilize]
    (default [true]) tune the warm master's simplex — speed only,
    never the answers.  A [Cold] session ignores all four (full
    enumeration). *)

val mode : t -> mode

val live_flows : t -> int
(** Currently admitted flows. *)

val handle_line : t -> seq:int -> string -> string * bool
(** [handle_line t ~seq line] executes one request line and returns the
    response line plus [true] when the request asked for shutdown.
    [seq] (1-based) is echoed as the response id when the request
    carries none.  Never raises on protocol errors — they become
    [{"ok":false}] responses. *)

val handle : t -> id:int -> Protocol.request -> string
(** Typed entry point behind {!handle_line}, for tests and benches that
    already hold a parsed request. *)

val background : t -> Wsn_availbw.Flow.t list
(** The admitted flows as background traffic, oldest admission first —
    the exact list (and float summation order) both modes feed to the
    solver. *)
