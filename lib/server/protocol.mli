(** The admission wire protocol: one JSON object per line, in both
    directions.

    Requests:
    {v
    {"op":"admit","source":3,"target":17,"demand_mbps":1.5}
    {"op":"query","source":5,"target":9}            // demand optional
    {"op":"whatif","source":5,"target":9,"flow":2,"factor":1.5}
    {"op":"whatif","source":5,"target":9,            // batched form
     "queries":[{"flow":2,"factor":1.5},{"flow":0,"factor":0.5}]}
    {"op":"whatif","source":5,"target":9,"flow":2,"factor":2.0,"exact":true}
    {"op":"prices","source":5,"target":9}
    {"op":"release","flow":2}                       // by flow id, or
    {"op":"release","nth":0}                        // k-th oldest live
    {"op":"snapshot"}  {"op":"stats"}  {"op":"ping"}  {"op":"shutdown"}
    v}

    [whatif] asks "what would the available bandwidth on the
    source→target path become if live flow [k]'s demand were scaled by
    [factor]?" — answered from the warm master's cached optimal basis
    without re-running column generation ([factor] must be finite and
    [≥ 0]; [0] previews removing the flow).  [exact:true] forces a full
    re-solve per query instead (the reference answer).  [prices]
    reports the congestion prices frozen at the path's last certified
    optimum: per-link shadow prices and the throttle ranking of the
    live background flows.

    Every request may carry an ["id"]; responses echo it (or the
    request's 1-based sequence number when absent) so clients can match
    answers to pipelined questions.  Malformed lines draw an
    [{"ok":false}] error response — a protocol error is session data,
    not a server failure, so the process exit code is unaffected.

    Responses serialise with fixed member order and all Mbit/s figures
    formatted at 3 decimals; the warm-vs-cold byte-identity gate in the
    bench compares these exact lines. *)

type request =
  | Admit of { source : int; target : int; demand_mbps : float }
  | Query of { source : int; target : int; demand_mbps : float option }
  | Whatif of { source : int; target : int; queries : (int * float) list; exact : bool }
  | Prices of { source : int; target : int }
  | Release_flow of int
  | Release_nth of int
  | Snapshot
  | Stats
  | Ping
  | Shutdown

val parse_request : string -> (int option * request, string) result
(** Parse one request line into its optional ["id"] and the request.
    [Error reason] on malformed JSON, unknown op, or missing/ill-typed
    fields. *)

(** {2 Response builders}

    Each returns one complete response line (no trailing newline).
    [id] is the echoed request id. *)

val mbps : float -> float
(** Quantise a bandwidth figure to the protocol's 3-decimal wire
    precision, as printed in responses.  Admission is decided on the
    unrounded figure: rounding up could admit a demand above the
    optimum. *)

val admit_response :
  id:int ->
  admitted:bool ->
  flow:int option ->
  path:int list option ->
  available_mbps:float ->
  string

val query_response :
  id:int -> path:int list option -> available_mbps:float -> admissible:bool option -> string

val whatif_response :
  id:int ->
  path:int list option ->
  base_mbps:float ->
  results:(int * float * float * bool) list ->
  string
(** [results] are (flow id, factor, predicted available Mbps,
    feasible), one per query in request order; [delta_mbps] on the wire
    is the difference of the two quantised figures. *)

val prices_response :
  id:int ->
  path:int list option ->
  available_mbps:float ->
  sigma_mbps:float ->
  links:(int * float) list ->
  throttle:(int * float) list ->
  string
(** [links] are (link, congestion price) in path order; [throttle] are
    (flow id, gain) sorted by descending gain. *)

val release_response : id:int -> flow:int -> remaining:int -> string

val snapshot_response : id:int -> flows:(int * int list * float) list -> string
(** [flows] are (id, path, demand) of live flows, oldest first. *)

val stats_response :
  id:int ->
  counts:(string * int) list ->
  latency_ms:(float * float) option ->
  string
(** [counts] print in list order; [latency_ms] is (p50, p99), present
    only when telemetry is live (excluded from identity transcripts). *)

val ping_response : id:int -> string

val shutdown_response : id:int -> string

val error_response : id:int -> string -> string
