(** Points in the plane (metres). *)

type t = { x : float; y : float }
(** Cartesian coordinates. *)

val make : float -> float -> t
(** [make x y]. *)

val distance : t -> t -> float
(** Euclidean distance. *)
