(** Inclusion-maximal independent sets, read off
    {!Wsn_conflict.Independent.enumerate_sets}. *)

val of_universe :
  ?max_sets:int -> Wsn_conflict.Model.t -> universe:int list -> int list list
(** [of_universe model ~universe] lists the inclusion-maximal
    independent subsets of [universe], in enumeration order.
    @raise Failure as {!Wsn_conflict.Independent.enumerate_sets} does
    when more than [max_sets] sets exist. *)
