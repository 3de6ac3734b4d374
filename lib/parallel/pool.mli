(** Deterministic fan-out/fan-in over OCaml 5 domains.

    A pool owns [domains - 1] long-lived worker domains; the caller of
    every fan-out participates as the remaining lane, so a pool of size
    1 has no workers at all and every operation degenerates to the
    plain sequential loop.  Work items are claimed by atomic index so
    jobs with many more items than domains balance themselves, and
    results are always delivered {e in input order} — the parallel
    output of {!map} and {!map_list} is byte-identical to the
    sequential one whenever the item function is pure.

    Because submitters help drain their own job (and any job enqueued
    after it), nested fan-outs from inside an item cannot deadlock even
    when [jobs >> domains]: the innermost submitter always makes
    progress on its own items.

    If an item raises, the job is cancelled (unclaimed items are
    skipped), the first exception captured is re-raised in the
    submitter with its original backtrace, and the pool stays usable.

    Built on the stdlib only: [Domain], [Atomic], [Mutex],
    [Condition]. *)

type t

val create : domains:int -> t
(** [create ~domains] spawns [domains - 1] worker domains.
    @raise Invalid_argument when [domains < 1]. *)

val size : t -> int
(** Total parallelism, including the calling domain ([>= 1]). *)

val shutdown : t -> unit
(** Signal workers to exit and join them.  Call once, after every
    fan-out has returned; subsequent submissions raise
    [Invalid_argument].  Idempotent. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] with a fresh pool and shuts it
    down afterwards, including on exceptions. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f xs] is [Array.map f xs] with the items evaluated in
    parallel.  Results are positioned by input index. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over a list, preserving order. *)

(** {2 Process-global pool}

    Call sites that honour the [--domains N] CLI flag share one lazily
    created pool sized by {!set_domains}.  The default of 1 keeps every
    existing code path sequential. *)

val set_domains : int -> unit
(** Set the global parallelism (shutting down any previously created
    global pool).  @raise Invalid_argument when the argument is [< 1]. *)

val domains : unit -> int
(** Current global parallelism (default 1). *)

val global : unit -> t
(** The shared pool, created on first use with {!domains} lanes. *)

val reset_after_fork : unit -> unit
(** Forget the global pool and reset parallelism to 1 {e without}
    joining or locking anything.  Must be called first thing in a
    [fork]ed child: worker domains do not survive [fork] and the
    inherited pool mutexes are in an unspecified state, so the child
    must never touch them. *)
