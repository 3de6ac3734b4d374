(** Shared vocabulary for the linear-programming library. *)

type sense = Le | Ge | Eq
(** Constraint sense: [a·x ≤ b], [a·x ≥ b] or [a·x = b]. *)

type objective = Maximize | Minimize
(** Optimisation direction. *)
