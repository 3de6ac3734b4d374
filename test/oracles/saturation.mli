(** Analytic saturation model for the CSMA/CA simulator (after
    Bianchi's DCF analysis, adapted to this simulator's semantics).

    [n] co-located stations always have a frame to send.  Each station
    attempts transmission in a generic slot with probability [τ],
    obtained from the binary-exponential-backoff fixed point

    {v
      τ = 2(1−2p) / ((1−2p)(W+1) + p·W·(1−(2p)^m))
      p = 1 − (1−τ)^(n−1)
    v}

    where [W] is the minimum contention window and [m] the number of
    doublings to the maximum.  A generic slot is idle (one backoff
    slot), a success, or a collision; in this simulator both busy kinds
    occupy the frame airtime plus a DIFS before counting resumes.
    Saturation throughput follows from the expected payload per
    expected slot duration.

    The test suite validates the simulator against this independent
    model; the two share no code. *)

type prediction = {
  tau : float;  (** Per-slot transmission attempt probability. *)
  collision_probability : float;  (** [p]: an attempt meets another transmitter. *)
  total_throughput_mbps : float;  (** Aggregate goodput of all [n] stations. *)
}

val predict : ?config:Wsn_mac.Dcf_config.t -> n_stations:int -> rate_mbps:float -> unit -> prediction
(** [predict ~n_stations ~rate_mbps ()] solves the fixed point by
    bisection (the right-hand side is monotone in [p]).
    @raise Invalid_argument if [n_stations < 1] or [rate_mbps <= 0]. *)
