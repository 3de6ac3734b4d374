(** Sweep orchestration: grid in, deterministic results out.

    [run] drives a spec list through the {!Pool} with an optional
    {!Cache} and {!Journal}, then (optionally) writes a results JSONL
    file in {e spec order} — byte-identical for any worker count and
    for cold vs cache-warm runs, because payloads are pure functions
    of the spec, ordering is restored from job indices, and per-run
    incidentals (attempts, timings) are confined to the journal.  The journal is appended in completion
    order as jobs finish, so an interrupted run can [--resume]:
    previously-successful jobs come back as cache hits and
    previously-failed jobs are skipped (reported, not re-run) unless
    [retry_failed] is set.  A torn last line (a run killed mid-write)
    is ended before the resumed run appends, so only that line is lost. *)

type config = {
  workers : int;  (** [0] = in-process, [N >= 1] = forked pool. *)
  timeout_s : float;  (** Per-job wall clock; [infinity] = none. *)
  retries : int;  (** Extra attempts after the first failure. *)
  cache_dir : string option;  (** [None] disables the cache. *)
  fingerprint : string option;  (** Cache fingerprint override (tests). *)
  out : string option;  (** Results JSONL path; [None] = don't write. *)
  journal : string option;  (** Journal path; [None] = no journal/resume. *)
  resume : bool;  (** Honour an existing journal. *)
  retry_failed : bool;  (** On resume, re-run previously-failed jobs. *)
}

val default : config
(** One forked worker, no timeout, one retry, cache in
    {!Cache.default_dir}, no files, no resume. *)

type summary = {
  total : int;
  ok : int;
  failed : int;
  cached : int;  (** Jobs served from the cache (subset of [ok]). *)
  skipped_failed : int;  (** Failed jobs carried over from a resumed journal. *)
  retries_used : int;  (** Attempts beyond each job's first. *)
  wall_s : float;
}

val run :
  config -> runner:(Spec.t -> string) -> Spec.t list -> Pool.result list * summary
(** Results come back in spec order.  Telemetry: everything {!Pool}
    records, plus the [engine.sweep] span and the [engine.cache_hit_rate]
    gauge.
    @raise Sys_error when the cache directory, journal or results file
    cannot be created/written. *)

val pp_summary : Format.formatter -> summary -> unit
(** One line: jobs, failures, cache hits, retries, jobs/s. *)
