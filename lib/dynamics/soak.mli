(** Replay a {!Scenario} timeline against the LP ground truth and the
    online estimators.

    Each epoch applies the scenario's deltas to a mutable world (node
    positions, live flow table), refreshes the MAC kernel — either by
    {!Wsn_mac.Sim.apply_delta} patching ([Incremental]) or a full
    {!Wsn_mac.Sim.prepare} ([Rebuild]); both produce byte-identical
    kernels — then:

    - routes every live flow and the pinned probe pair;
    - solves Equation 6 for the probe path by
      {!Wsn_availbw.Column_gen.available} with a [~pool] kept per
      topology (the pool warm-starts every epoch whose topology did not
      change);
    - simulates one MAC measurement window of the background traffic
      and feeds the sensed idleness to the Equation 10–13/15
      estimators, {e online}, exactly as a deployed node would.

    The per-epoch rows pair each online estimate with the concurrent
    LP truth (tracking error) and with the truth one tracked epoch
    later (staleness).  Everything is deterministic in the scenario:
    {!artifact} renders the mode-independent fields, and the soak
    bench gates [Incremental ≡ Rebuild] on artifact and kernel-digest
    equality. *)

type prepare_mode = Incremental | Rebuild

type kernel_op =
  | Reused  (** No position changed: previous kernel shared as-is. *)
  | Rebuilt  (** Full O(n²) {!Wsn_mac.Sim.prepare}. *)
  | Patched  (** O(|moved|·n) {!Wsn_mac.Sim.apply_delta}. *)

type epoch_row = {
  index : int;
  t_h : float;  (** Epoch start, simulated hours. *)
  demand_scale : float;
  n_active : int;  (** Nodes not parked. *)
  n_links : int;
  n_moved : int;  (** Nodes whose position changed entering this epoch. *)
  kernel_op : kernel_op;
  kernel_digest : string;  (** {!Wsn_mac.Sim.prepared_digest} of the epoch's kernel. *)
  live_flows : int;
  routed_flows : int;  (** Live flows the router found a path for. *)
  tracked : bool;  (** The probe pair was routable this epoch. *)
  truth_mbps : float;  (** Equation 6 optimum (0 when untracked or background-infeasible). *)
  certified : bool;
  upper_mbps : float;  (** Clique upper bound (Equation 7). *)
  estimates : Wsn_availbw.Estimators.all option;  (** Online estimates; [None] when untracked. *)
  columns_generated : int;
  columns_pooled : int;
  prepare_s : float;  (** Wall time building/patching the kernel (0 when reused). *)
  lp_s : float;
  mac_s : float;
}

type t = {
  scenario : Scenario.t;
  mode : prepare_mode;
  window_us : int;
  rows : epoch_row list;  (** One per epoch, in order. *)
}

val run :
  ?mode:prepare_mode ->
  ?pricer:Wsn_availbw.Column_gen.pricer ->
  ?max_iterations:int ->
  ?lp_pricing:Wsn_availbw.Column_gen.lp_pricing ->
  ?stabilize:bool ->
  ?window_us:int ->
  ?metric:Wsn_routing.Metrics.t ->
  ?track:bool ->
  Scenario.t ->
  t
(** [run sc] replays the timeline (default [Incremental] kernel
    maintenance, [Auto] pricing, a 1 s MAC measurement window per
    epoch, transmission-delay routing).  MAC seeds come from the
    scenario master seed's "soak-mac" stream, so the whole run — rows,
    digests, artifact — is a deterministic function of [(sc, options)]
    and is identical under both prepare modes.  [lp_pricing] and
    [stabilize] tune the per-epoch master simplex (see
    {!Wsn_availbw.Column_gen.available}) without changing any row.

    [~track:false] replays only the world and its kernel maintenance —
    no routing, LP or MAC, every row untracked — isolating the
    prepare-path cost; the soak bench uses it to profile
    incremental-vs-rebuild kernel upkeep at sizes where a per-epoch LP
    would dominate. *)

val estimator_names : string list
(** Labels aligned with {!Wsn_availbw.Estimators.all}, paper equation
    numbers included. *)

val tracking_errors : t -> (string * float) list
(** Mean [|estimate − truth|] per estimator over tracked epochs ([nan]
    when none). *)

val staleness_errors : t -> (string * float) list
(** Mean [|previous tracked estimate − current truth|] per estimator:
    the cost of acting on one-epoch-old information ([nan] with fewer
    than two tracked epochs). *)

val row_artifact : epoch_row -> string
(** The row's mode-independent fields (hex floats, no wall times, no
    kernel op) — byte-comparable across prepare modes and runs. *)

val artifact : t -> string
(** All rows' {!row_artifact}s, newline-joined. *)
