(** Experiment E7 (extension) — bandwidth-aware routing.

    Section 4 proposes using the available-bandwidth estimators
    themselves as routing metrics; the paper's Fig. 3 stops at three
    additive metrics.  This experiment completes the comparison: the
    best additive metric (average-e2eD) against candidate-set selection
    by the conservative clique constraint (Equation 13) and by the LP
    oracle — the non-distributed upper baseline.  Shape expectation:
    oracle ≥ conservative-select ≈ average-e2eD ≥ hop count. *)

type entry = {
  label : string;
  admitted : int;  (** Flows admitted (of the scenario's total). *)
  first_failure : int option;
  run : Wsn_routing.Admission.run;
}

type t = {
  seed : int64;
  entries : entry list;
}

val compute : ?seed:int64 -> unit -> t
(** Run every policy on the Fig. 3 scenario (default seed 30). *)

val sweep_seeds : seeds:int64 list -> (string * float) list
(** Mean admitted flows per policy across seeds. *)

val print : ?seed:int64 -> unit -> unit
(** Print the comparison to stdout. *)
