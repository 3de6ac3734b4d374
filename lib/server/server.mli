(** Transports for admission sessions: line-batched stdio, a
    Unix-domain socket accept loop multiplexed over the
    {!Wsn_parallel} domain pool, and a trivial client for smoke tests.

    Batching: the reader blocks for the first request line, then drains
    whatever else has already arrived (up to [batch] lines) and the
    whole burst is answered in one wave — under a Warm session the wave
    shares one cached background schedule and one column pool, so a
    burst of queries costs one re-optimisation each, not one full
    rebuild each.

    Both transports read request lines of at most 1 MiB.  A longer line
    is not buffered: it draws one [{"ok":false}] "line too long"
    response (see {!Session.reject_line}) and the reader resyncs at its
    newline. *)

val run_stdio :
  session:Session.t -> ?batch:int -> Unix.file_descr -> Unix.file_descr -> unit
(** [run_stdio ~session fd_in fd_out] serves one session over a byte
    stream until EOF or a [shutdown] request.  [batch] (default 32)
    caps the lines answered per wave. *)

val run_socket :
  make_session:(unit -> Session.t) ->
  ?batch:int ->
  ?max_conns:int ->
  path:string ->
  unit ->
  unit
(** [run_socket ~make_session ~path ()] binds a Unix-domain socket at
    [path] (unlinking any stale file) and serves each accepted
    connection a fresh session from [make_session] — give it
    {!Wsn_conflict.Model.fork_view} so sessions never share kernel
    memos.  Pending connections are accepted as a wave and served
    concurrently over the global {!Wsn_parallel.Pool}.  Returns after
    [max_conns] connections (when given) or once any session receives
    [shutdown]; the socket file is unlinked on the way out.  SIGPIPE is
    ignored while it runs, so a client that closes before reading its
    responses ([EPIPE], or [ECONNRESET] on the next read) ends its own
    connection only. *)

val run_client : path:string -> lines:string list -> (string -> unit) -> unit
(** [run_client ~path ~lines f] connects to the socket, writes every
    request line, half-closes, and feeds each response line to [f] in
    order.  @raise Unix.Unix_error when the server is not there. *)
