(** The paper's core model: maximum available bandwidth of a path under
    background traffic, by linear programming over independent-set
    columns (Section 2.5, Equation 6).

    Given background flows [x_k] over paths [P_k] and a new path
    [P_{K+1}], the model maximises [f_{K+1}] subject to a global link
    schedule: time shares [λ_α ≥ 0] over the independent-set columns of
    [P = ∪ P_i] with [Σ λ_α ≤ 1] and, per link, scheduled throughput
    covering background load plus [f_{K+1}] where the new path crosses. *)

type result = {
  bandwidth_mbps : float;  (** The optimum [f_{K+1}]. *)
  schedule : Wsn_sched.Schedule.t;  (** A witness schedule attaining it. *)
  n_columns : int;  (** Independent-set columns in the LP. *)
}

val available :
  Wsn_conflict.Model.t ->
  background:Flow.t list ->
  path:int list ->
  result option
(** [available model ~background ~path] solves Equation 6.  Returns
    [None] when the background alone is infeasible (then no bandwidth
    question arises).  A path that is routable but starved yields
    [Some {bandwidth_mbps = 0.; _}].
    @raise Invalid_argument on an empty or repeated-link [path]. *)

val path_capacity : ?max_sets:int -> Wsn_conflict.Model.t -> path:int list -> result
(** [path_capacity model ~path] is {!available} with no background —
    the end-to-end capacity of the path (the quantity maximised in
    Section 5.1's four-link chain).  [max_sets] caps the independent-set
    enumeration ({!Wsn_conflict.Independent.columns}). *)

val background_schedule : Wsn_conflict.Model.t -> Flow.t list -> Wsn_sched.Schedule.t option
(** [background_schedule model flows] finds a schedule meeting all
    background demands while minimising total airtime [Σ λ_α] — the
    schedule an efficient coordinator would run, used to derive channel
    idleness.  [None] when the demands are infeasible. *)

val feasible : Wsn_conflict.Model.t -> Flow.t list -> bool
(** Whether the demand set is schedulable at all. *)

type multi_result = {
  scale : float;  (** Largest [α] so that every request can get [α × demand]. *)
  multi_schedule : Wsn_sched.Schedule.t;  (** Witness schedule at that [α]. *)
}

val available_multi :
  Wsn_conflict.Model.t ->
  background:Flow.t list ->
  requests:Flow.t list ->
  multi_result option
(** Section 2.5's extension to several flows joining simultaneously:
    maximise the common scale [α] such that every request [i] receives
    [α · demand_i] on its path while the background stays served.  The
    request set is admissible iff [scale ≥ 1].  Returns [None] when the
    background alone is infeasible.
    @raise Invalid_argument if [requests] is empty or a request has a
    zero demand (scale would be unbounded). *)
