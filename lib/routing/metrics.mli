(** QoS routing metrics (Sections 4 and 5.2).

    All three metrics compared in Fig. 3 are additive over links, so
    shortest-path search applies:

    - {e hop count}: every link costs 1;
    - {e end-to-end transmission delay} (e2eTD): a link costs [1/r_i],
      the airtime of one unit of traffic at its effective rate;
    - {e average end-to-end delay} (average-e2eD, Equation 14): a link
      costs [1/(λ_i·r_i)] — transmission delay inflated by the share of
      time the link can actually use.  Links with zero idleness are
      unusable (infinite cost). *)

type t =
  | Hop_count
  | E2e_transmission_delay
  | Average_e2e_delay

val all : t list
(** The three metrics, in the paper's order of presentation. *)

val name : t -> string
(** ["hop-count"], ["e2eTD"] or ["average-e2eD"]. *)

val weight :
  Wsn_net.Topology.t -> idleness:(int -> float) -> t -> Wsn_graph.Digraph.edge -> float
(** [weight topo ~idleness m] is the additive link cost of metric [m];
    [idleness] maps a link id to its usable idle share (ignored except
    by [Average_e2e_delay]). *)
