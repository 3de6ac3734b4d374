(** Log-scale histogram: geometric buckets (ten per decade) with exact
    count/sum/min/max and approximate quantiles.  Relative quantile
    error is bounded by the bucket width (a factor of [10^0.1], ~26%),
    and results are clamped into the exact observed [min, max]. *)

type t

val create : unit -> t

(** Record one observation.  Non-positive and non-finite values land in
    a dedicated underflow bucket with representative value 0. *)
val observe : t -> float -> unit

val count : t -> int

val sum : t -> float

(** Smallest / largest value observed; [nan] when empty. *)
val min_value : t -> float

val max_value : t -> float

(** [quantile h q] for [q] in [0, 1]; [nan] when empty. *)
val quantile : t -> float -> float

(** [percentile h p] is [quantile h (p /. 100.)] — the approximate
    [p]-th percentile, for [p] in [0, 100]; [nan] when empty.
    @raise Invalid_argument when [p] is outside [0, 100]. *)
val percentile : t -> float -> float

val clear : t -> unit
