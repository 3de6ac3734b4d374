(** The reference SINR model: every query recomputes distances, powers
    and SINR from scratch.  Semantically identical to
    {!Wsn_conflict.Model.physical}, and built only from the public
    {!Wsn_conflict.Model.create}; the oracle of the kernel's property
    tests and the perf suite's naive arm. *)

val model : Wsn_net.Topology.t -> Wsn_conflict.Model.t
(** [model topo] is the from-scratch SINR model over [topo]'s links;
    it has no kernel and a unique maximum rate vector per set. *)
