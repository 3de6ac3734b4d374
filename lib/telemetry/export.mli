(** Snapshot serialisation: a JSON tree for {!Json} to print, and a
    human-readable summary table. *)

(** Four objects, [counters], [gauges], [histograms] and [spans], each
    keyed by metric name.  Non-finite statistics print as [null]. *)
val to_json : Registry.snapshot -> Json.t

(** Aligned four-section table (counters / gauges / latency spans /
    histograms); prints nothing but a header when the snapshot is
    empty. *)
val pp_summary : Format.formatter -> Registry.snapshot -> unit
