(** Crash-isolated worker pool.

    Jobs are dispatched in spec order to up to [workers] concurrent
    child processes ([Unix.fork], one child per job attempt, result
    streamed back over a pipe).  Because each attempt runs in its own
    address space, a segfaulting, OOM-killed or diverging job fails
    {e that job} — never the run: the parent reaps the corpse, retries
    up to [retries] times, and carries on.  A per-job wall-clock
    [timeout_s] is enforced with SIGKILL.

    Results are indexed by the job's position in the input list and
    returned (and streamed via [on_result]) so that downstream output
    can be ordered deterministically: the same grid produces the same
    result list whatever the worker count or completion interleaving.

    [workers = 0] runs every job in-process (no isolation, no
    timeouts — exceptions still count as attempts).  This is the mode
    embedded callers (e.g. the Fig. 3 aggregate) use; the CLI forks
    even for [-j 1] so one diverging job cannot take the sweep down.

    Telemetry (when enabled): counters [engine.jobs],
    [engine.cache_hits], [engine.cache_misses], [engine.retries],
    [engine.failures], [engine.timeouts], [engine.forks]; gauges
    [engine.queue_depth] (jobs not yet dispatched, high-water
    [engine.inflight_max]); span [engine.job] per job. *)

type failure =
  | Exn of string  (** The runner raised (or the worker died mutely). *)
  | Signalled of int  (** Worker killed by signal [n] (segfault, OOM...). *)
  | Timeout  (** Every attempt exceeded [timeout_s]. *)

type outcome = Done of string | Failed of failure

type result = {
  spec : Spec.t;
  index : int;  (** Position in the input list. *)
  outcome : outcome;
  attempts : int;  (** Attempts consumed; [0] for a cache hit. *)
  cached : bool;
  wall_s : float;  (** Parent-observed wall clock of the final attempt. *)
}

val run :
  ?workers:int ->
  ?timeout_s:float ->
  ?retries:int ->
  ?cache:Cache.t ->
  ?on_result:(result -> unit) ->
  runner:(Spec.t -> string) ->
  Spec.t list ->
  result list
(** [run ~runner specs] executes every spec and returns results in
    input order.  Defaults: [workers = 1] (forked),
    [timeout_s = infinity], [retries = 0], no cache.  [on_result]
    fires once per job in completion order (journal hook).  Cache hits
    are resolved in the parent and never fork. *)

val failure_to_string : failure -> string
