(** Experiment E1 — Scenario I of Fig. 1 (Section 1).

    Two non-interfering background links each hold a time share [λ]; the
    new link hears both.  The optimal scheduler overlaps the background
    shares, leaving [(1-λ)·r] for the new link, while the channel-idle-
    time method only sees [(1-2λ)·r].  One row per [λ] on a grid. *)

type row = {
  lambda : float;  (** Background share per link. *)
  lp_truth_mbps : float;  (** Equation 6 optimum over the new link. *)
  closed_form_mbps : float;  (** The paper's [(1-λ)·r]. *)
  idle_estimate_mbps : float;  (** Idle-time estimate [(1-2λ)·r] under the uncoordinated schedule. *)
}

val rows : ?grid:float list -> unit -> row list
(** Compute the sweep (default grid [0.0, 0.05, ..., 0.5]). *)

val print : ?grid:float list -> unit -> unit
(** Print the table to stdout. *)
