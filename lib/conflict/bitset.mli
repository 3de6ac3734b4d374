(** Mutable fixed-capacity bitsets over small integer universes.

    The conflict kernel stores link sets (independent sets under
    construction, half-duplex neighbourhoods, clique candidate sets) as
    int-array bitsets so membership, disjointness and intersection
    tests cost O(words) instead of O(n) list walks.  Capacity is fixed
    at creation; all elements must lie in [0, capacity). *)

type t

val create : int -> t
(** [create n] is the empty set over universe [0 .. n-1]. *)

val capacity : t -> int

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val clear : t -> unit

val copy : t -> t

val is_empty : t -> bool

val popcount : t -> int
(** Number of members. *)

val inter_empty : t -> t -> bool
(** Whether the two sets are disjoint.  O(words). *)

val inter_popcount : t -> t -> int
(** Size of the intersection.  O(words). *)

val union_into : dst:t -> t -> unit
(** [union_into ~dst s] adds every member of [s] to [dst]. *)

val iter : (int -> unit) -> t -> unit
(** Members in ascending order. *)

val iter_union : (int -> unit) -> t -> t -> unit
(** [iter_union f a b] applies [f] to every member of [a] ∪ [b] in
    ascending order, without materialising the union.  The MAC
    simulator's busy-time accounting walks transmitting ∪ sensed-busy
    this way every slot. *)

val to_list : t -> int list
(** Members, ascending. *)

val of_list : int -> int list -> t
(** [of_list n ls] builds a set of capacity [n] from a member list. *)

val words : t -> int array
(** The backing words (do not mutate): a cheap canonical key — copy
    before using as a hash-table key.  Member [i] is bit
    [i mod word_bits] of word [i / word_bits]. *)

val word_bits : int
(** Members per backing word (63). *)
