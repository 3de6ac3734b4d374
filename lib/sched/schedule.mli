(** Link schedules: the paper's [S = {(E_i, R_i, λ_i)}] (Section 2.3).

    A schedule partitions time into slots; in slot [i] the links of
    [E_i] transmit concurrently at the rates of [R_i] for a share [λ_i]
    of the period.  A demand vector is feasible iff some schedule with
    total share at most one delivers it (Equation 2). *)

type slot = {
  links : int list;  (** Concurrent transmission set, ascending link ids. *)
  rates : Wsn_radio.Rate.t list;  (** Rates aligned with [links]. *)
  share : float;  (** Time share [λ_i ≥ 0]. *)
}

type t
(** An immutable schedule. *)

val make : slot list -> t
(** [make slots] validates shapes.
    @raise Invalid_argument on negative shares, misaligned rate lists or
    repeated links within a slot. *)

val slots : t -> slot list
(** The slots, in construction order; zero-share slots are dropped. *)

val empty : t
(** The schedule with no slots. *)

val total_share : t -> float
(** [Σ λ_i]. *)

val throughput : Wsn_radio.Rate.table -> t -> int -> float
(** [throughput tbl t l] is the Mbit/s delivered over link [l]:
    [Σ_i λ_i · mbps(R_i(l))]. *)

val link_ids : t -> int list
(** Links appearing in some slot, ascending, deduplicated. *)

val is_feasible : Wsn_conflict.Model.t -> t -> bool
(** Whether every slot's assignment is feasible under the model and the
    total share is at most [1 + 1e-9]. *)

val meets_demands : Wsn_radio.Rate.table -> t -> (int * float) list -> bool
(** [meets_demands tbl t demands] checks
    [throughput l ≥ demand_l - 1e-6] for every pair. *)

val pp : Format.formatter -> t -> unit
(** Prints one line per slot: [λ=0.30 {L1@36, L4@54}]. *)
