(** Preallocated growable [int] buffers.

    The simulator's hot loop records per-flow latencies (and scratch
    arrival batches) into these instead of consing lists: a push is an
    array store plus an occasional doubling, so steady state allocates
    nothing.  Sorting is monomorphic ([Array.sort Int.compare]), which
    replaces the polymorphic [List.sort compare] of the old stats
    path with identical results. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty buffer (default initial capacity 16).
    @raise Invalid_argument if [capacity < 1]. *)

val length : t -> int

val clear : t -> unit
(** Reset to empty without releasing storage. *)

val push : t -> int -> unit
(** Append, doubling the backing array when full. *)

val get : t -> int -> int
(** @raise Invalid_argument out of [0, length). *)

val to_sorted_array : t -> int array
(** A fresh ascending-sorted copy of the contents. *)
