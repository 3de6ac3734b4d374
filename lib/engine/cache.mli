(** Content-addressed result cache.

    A cache entry is one file under [dir] whose name is the MD5 of the
    job's canonical spec mixed with a {e code fingerprint} (by default
    the digest of the running executable), so a rebuilt binary never
    serves stale results and overlapping grids share solved jobs.
    Stores are atomic (temp file + rename): a crashed or killed worker
    can never leave a half-written entry behind, and only successful
    payloads are ever stored — failures do not poison the cache. *)

type t

val default_dir : string
(** [".wsn-cache"]. *)

val create : ?fingerprint:string -> dir:string -> unit -> t
(** Open (creating [dir] if needed) a cache.  [fingerprint] overrides
    the executable digest — tests use this to simulate code changes.
    @raise Sys_error when [dir] cannot be created. *)

val key : t -> Spec.t -> string
(** The entry file name: hex MD5 of [canonical spec ^ NUL ^ fingerprint]. *)

val find : t -> Spec.t -> string option
(** The cached payload, if present. *)

val store : t -> Spec.t -> string -> unit
(** Atomically persist a payload.  Best-effort: an unwritable cache
    disables reuse but never fails the job. *)
