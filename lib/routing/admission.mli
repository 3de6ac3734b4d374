(** Sequential flow admission (the experiment of Section 5.2 / Fig. 3).

    Flows arrive one by one.  For each arrival the router measures
    channel idleness under the current background (the efficient
    schedule of all previously admitted flows), picks a path, and the
    ground-truth LP (Equation 6) decides how much bandwidth that path
    really has.  The flow is admitted when the truth covers its demand.
    The paper stops at the first unsatisfied flow;
    [stop_on_failure:false] keeps admitting the rest instead. *)

type step = {
  index : int;  (** 1-based flow number. *)
  source : int;
  target : int;
  demand_mbps : float;
  path : int list option;  (** Chosen route (link ids); [None] when no finite-cost route exists. *)
  available_mbps : float;  (** LP ground truth of the chosen path (0 with no route). *)
  admitted : bool;
}

type run = {
  label : string;  (** Name of the routing policy that produced the run. *)
  steps : step list;  (** In arrival order. *)
  first_failure : int option;  (** 1-based index of the first unsatisfied flow. *)
}

val run :
  ?stop_on_failure:bool ->
  Wsn_net.Topology.t ->
  Wsn_conflict.Model.t ->
  metric:Metrics.t ->
  flows:(int * int * float) list ->
  run
(** [run topo model ~metric ~flows] processes [(source, target,
    demand)] triples in order, routing each by an additive metric
    (Dijkstra with idleness from the background schedule); [label] is
    the metric's name.  [stop_on_failure] defaults to [true] (the
    paper's protocol). *)

val run_strategy :
  ?stop_on_failure:bool ->
  Wsn_net.Topology.t ->
  Wsn_conflict.Model.t ->
  strategy:Qos_routing.strategy ->
  flows:(int * int * float) list ->
  run
(** As {!run}, routing by bandwidth-aware candidate selection
    ({!Qos_routing}); [label] is the strategy's name. *)

val admitted_flows : run -> Wsn_availbw.Flow.t list
(** The background carried at the end of the run. *)
