(** Job specification: one experiment instance as a pure value.

    A spec names everything a run depends on — scenario kind, topology
    seed, offered load (flow count and per-flow demand) and routing
    metric — so that [runner spec] is a pure function of the spec and
    the code.  The canonical serialisation is a single line of
    [key=value] words with the demand printed as an exact hexadecimal
    float, so equal specs have equal strings, and the content hash is
    the MD5 of that line. *)

type t = private {
  kind : string;  (** Scenario kind, e.g. ["fig3"]. *)
  seed : int64;  (** Topology / workload seed. *)
  n_flows : int;  (** Number of flows offered. *)
  demand_mbps : float;  (** Per-flow demand (Mbit/s). *)
  metric : string;  (** Routing-metric name, e.g. ["average-e2eD"]. *)
}

val make :
  kind:string -> seed:int64 -> n_flows:int -> demand_mbps:float -> metric:string -> t
(** @raise Invalid_argument when [kind] or [metric] contains characters
    outside [A-Za-z0-9_.-] (they must survive the canonical line), or
    when [n_flows < 0] or [demand_mbps] is not finite. *)

val canonical : t -> string
(** One line, no newline: [kind=K seed=S n_flows=N demand=H metric=M]
    with [H] in [%h] (exact hexadecimal) notation. *)

val of_canonical : string -> (t, string) result
(** Inverse of {!canonical}; [Error] explains the first malformed
    field. *)

val hash : t -> string
(** Lower-case hex MD5 of {!canonical} — the content-address of the
    job (the cache key additionally mixes in the code fingerprint). *)

val equal : t -> t -> bool
