(** E17: dynamic-scenario soak run.

    Replays a seeded {!Wsn_dynamics.Scenario} timeline (flow churn,
    diurnal load, node join/leave, waypoint drift) with
    {!Wsn_dynamics.Soak}, printing the per-epoch series — LP ground
    truth vs the online Equation 10–13/15 estimates — and the
    tracking-error and staleness summaries. *)

val compute :
  ?seed:int64 ->
  ?epochs:int ->
  ?n_nodes:int ->
  ?horizon_h:float ->
  ?window_us:int ->
  ?pricer:Wsn_availbw.Column_gen.pricer ->
  ?rebuild:bool ->
  unit ->
  Wsn_dynamics.Soak.t
(** [compute ()] generates the scenario (default seed 30, the
    {!Wsn_dynamics.Scenario.default} parameters) and replays it —
    incrementally unless [rebuild] forces full per-epoch kernel
    rebuilds (byte-identical output either way). *)

val print :
  ?seed:int64 ->
  ?epochs:int ->
  ?n_nodes:int ->
  ?horizon_h:float ->
  ?window_us:int ->
  ?pricer:Wsn_availbw.Column_gen.pricer ->
  ?rebuild:bool ->
  unit ->
  unit
