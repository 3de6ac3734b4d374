(** The experiment side of the sweep engine: job kinds and payload
    codecs.

    A {!Wsn_engine.Spec.t} names a pure computation; this module is
    where each [kind] is given its meaning.  The real kind is
    ["fig3"] — one (seed, metric) admission run of the Section 5.2
    evaluation, rendered to a deterministic text payload that round-trips
    back into an {!Wsn_routing.Admission.run} so sweep output can be
    re-rendered byte-identically to [wsn_repro e3].

    Three fault-injection kinds exist for tests and smoke checks of the
    pool's isolation story (run them with [workers >= 1] — in-process
    they take the caller down with them, which is exactly the failure
    mode the pool exists to contain):

    - ["fail"]: raises immediately;
    - ["sleep"]: sleeps [demand_mbps] seconds (exercises timeouts);
    - ["crash"]: raises SIGSEGV in the worker (exercises crash
      isolation). *)

val runner : Wsn_engine.Spec.t -> string
(** Execute one spec; the payload is a pure function of the spec.
    @raise Failure on unknown kinds/metrics and for kind ["fail"]. *)

val table : (Wsn_engine.Spec.t * string) list -> string
(** Re-render sweep results (spec, payload) as e3 text blocks, one per
    seed in first-appearance order, blank-line separated.  Byte-identical
    to [wsn_repro e3 --seed S] for a full (all-metrics) single-seed
    grid, because it reuses {!Fig3.render_header} / {!Fig3.render_run}. *)

val mean_admitted :
  (Wsn_engine.Spec.t * string) list -> (Wsn_routing.Metrics.t * float) list
(** Mean admitted flows per metric over the given results (grouped by
    metric name; seeds averaged in {!Wsn_routing.Metrics.all} order). *)

val sweep_seeds :
  ?workers:int -> seeds:int64 list -> unit -> (Wsn_routing.Metrics.t * float) list
(** The Fig. 3 aggregate (mean admitted flows per metric, 8 flows of
    2 Mbit/s), executed as an engine grid — in-process by default,
    forked when [workers >= 1]. *)
