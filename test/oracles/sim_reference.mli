(** The original slot-stepping CSMA/CA loop, the oracle
    {!Wsn_mac.Sim.run} is tested against: O(n·active) work per slot,
    no fast paths, byte-identical {!Wsn_mac.Sim.stats}. *)

val run :
  ?config:Wsn_mac.Dcf_config.t ->
  ?seed:int64 ->
  Wsn_net.Topology.t ->
  flows:Wsn_mac.Sim.flow_spec list ->
  duration_us:int ->
  Wsn_mac.Sim.stats
(** Same inputs and defaults as {!Wsn_mac.Sim.run} without
    [?prepared]; use it for differential testing only.
    @raise Invalid_argument as {!Wsn_mac.Sim.validate_flows}. *)
