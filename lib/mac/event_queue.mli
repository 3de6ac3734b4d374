(** Time-ordered event queue for discrete-event simulation.

    A binary min-heap keyed by (time, sequence): events at equal times
    pop in insertion order, which keeps simulations deterministic. *)

type 'a t
(** A mutable queue of ['a] events. *)

val create : unit -> 'a t
(** An empty queue. *)

val is_empty : 'a t -> bool
(** Whether no events are pending. *)

val size : 'a t -> int
(** Number of pending events. *)

val schedule : 'a t -> time:int -> 'a -> unit
(** [schedule q ~time e] enqueues [e] at [time] (microseconds or any
    monotone integer clock).
    @raise Invalid_argument if [time] is negative. *)

val next_time : 'a t -> int option
(** Time of the earliest pending event. *)

val drain_until : 'a t -> time:int -> (int -> 'a -> unit) -> unit
(** [drain_until q ~time f] pops every event with time at most [time],
    in order, calling [f time payload] on each — no list is built, so
    the empty and common few-event cases allocate nothing.  Events
    scheduled from inside [f] at or before [time] are drained by the
    same call; callers that must not see same-batch reschedules (the
    simulator's arrival loop) collect payloads first and schedule
    afterwards. *)

val pop_until : 'a t -> time:int -> (int * 'a) list
(** [pop_until q ~time] removes and returns, in order, every event with
    time at most [time].  Implemented on {!drain_until}. *)
