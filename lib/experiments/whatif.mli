(** E18 — what-if prediction accuracy and speed against re-solving.

    Generates one {!Wsn_workload.Scenarios.Scale_scenario}, routes its
    flows by end-to-end transmission delay, prices the first flow's
    path under the rest as background with
    {!Wsn_availbw.Column_gen.available_sens} (exact pricer, so the
    optimum is certified and carries its dual view), then asks, for
    every background flow and every scaling factor, "what if this
    flow's demand were scaled by that factor?" twice over: the
    basis-reuse prediction ({!Wsn_availbw.Column_gen.whatif_scale}) and
    a fresh certified re-solve of the scaled instance.  Inside the
    basis-stability range ({!Wsn_availbw.Column_gen.scale_ranging}) the
    prediction must match the re-solve at the wire's 3-decimal
    quantisation ({!Wsn_admission.Protocol.mbps}) — that identity is
    the repo's correctness gate for the sensitivity engine; outside it
    the error column shows what the bounded re-pivot trades away. *)

type row = {
  factor : float;  (** Demand-scaling factor probed. *)
  n_queries : int;  (** Background flows probed at this factor. *)
  in_range : int;  (** Queries inside the basis-stability range. *)
  repivoted : int;  (** Queries the predictor answered via re-pivot. *)
  wire_exact : int;
      (** Queries whose prediction matched the re-solve at wire
          precision (feasibility flag included). *)
  in_range_wire_exact : int;
      (** Wire-exact queries among the in-range ones; the gate demands
          this equals [in_range]. *)
  max_err_mbps : float;  (** Largest |prediction − re-solve| seen. *)
  predict_s : float;  (** Summed wall time of the predictions. *)
  resolve_s : float;  (** Summed wall time of the fresh re-solves. *)
  predict_pivots : int;
      (** Simplex pivots the predictions made (re-pivots only; [0]
          unless telemetry is enabled, which the counts read from
          [lp.pivots]). *)
  resolve_pivots : int;
      (** Simplex pivots the fresh re-solves made (same caveat). *)
}

val default_factors : float list
(** [[0.0; 0.5; 0.9; 1.1; 1.5; 2.0]] — removal, shrink, small moves
    either side of 1, and growth past the typical stability range. *)

val run :
  ?factors:float list ->
  ?n_flows:int ->
  ?demand_mbps:float ->
  ?n_nodes:int ->
  seed:int64 ->
  unit ->
  row list
(** One row per factor (default {!default_factors}) on a generated
    [n_nodes]-node scenario (default 30, where the exact pricer is
    comfortable).  Deterministic in [seed] apart from the timing
    columns.
    @raise Failure if the generated background is infeasible. *)

val all_in_range_exact : row list -> bool
(** Whether every in-range prediction matched its re-solve at wire
    precision — the pass/fail verdict the CLI and bench gate on. *)

val print :
  ?factors:float list ->
  ?n_flows:int ->
  ?demand_mbps:float ->
  ?n_nodes:int ->
  seed:int64 ->
  unit ->
  row list
(** {!run} as a table on stdout; returns the rows so callers can apply
    {!all_in_range_exact}. *)
