(** Experiment E14 (extension) — enumeration vs column generation.

    Equation 6 needs the independent sets of the involved links; full
    enumeration grows exponentially with path length, column generation
    prices in only the columns the optimum needs.  Both solve the same
    LP, so the optima must agree — the measurements are column counts
    and wall-clock on chains of growing length. *)

type row = {
  hops : int;
  optimum_mbps : float;
  enum_columns : int option;  (** [None] when enumeration tripped the guard. *)
  enum_seconds : float;
  cg_columns : int;
  cg_seconds : float;
}

val run : ?lengths:int list -> unit -> row list
(** Default chain lengths 8/12/16/20 nodes at 55 m spacing; enumeration
    guard 500000 sets. *)

val print : unit -> unit
(** Print the comparison table. *)
