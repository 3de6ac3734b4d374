(** Rate-coupled cliques (Section 3.1).

    A clique is a set of (link, rate) couples — one couple per link —
    such that every two couples interfere: not both transmissions
    succeed concurrently at those rates.  In multirate networks cliques
    must be coupled with rates; the classical "set of links" clique is
    recovered by fixing one rate per link. *)

type couple = int * Wsn_radio.Rate.t
(** A link paired with a transmission rate. *)

val is_clique : Model.t -> couple list -> bool
(** Whether every two couples interfere (distinct links required).
    Singletons and the empty list are cliques. *)

val is_maximal_clique : Model.t -> universe:int list -> couple list -> bool
(** Whether [c] is a clique and no couple [(l, r)] with [l] in
    [universe] but not in [c] (and [r] alone-achievable on [l]) can be
    inserted while keeping it a clique. *)

val maximal_cliques_at : Model.t -> links:int list -> rate_of:(int -> Wsn_radio.Rate.t) -> int list list
(** [maximal_cliques_at model ~links ~rate_of] enumerates the maximal
    cliques of the interference graph over [links] with each link fixed
    at [rate_of] (Bron–Kerbosch with pivoting).  Returned as ascending
    link lists. *)

val maximal_rate_coupled_cliques : Model.t -> universe:int list -> couple list list
(** All maximal cliques over couples of [universe] links with their
    alone-achievable rates.
    @raise Failure beyond 100000 cliques. *)

val with_maximum_rates : Model.t -> universe:int list -> couple list list
(** The maximal cliques with maximum rates (§3.1): maximal cliques [c]
    such that raising any single couple's rate to a faster
    alone-achievable one never yields another maximal clique. *)

val local_cliques : Model.t -> path_links:int list -> rate_of:(int -> Wsn_radio.Rate.t) -> int list list
(** Local interference cliques of a path (§4): maximal runs of
    {e consecutive} path links that pairwise interfere at the rates
    given by [rate_of].  Follows the construction of reference [1].
    Each window is a list of 0-based positions into [path_links] (the
    form {!Wsn_availbw.Estimators} takes); windows are in path order
    and not contained in one another. *)
