(** The one JSON codec: every JSON line or file the system writes is
    printed from a [t], and every one it reads is parsed into a [t].
    That covers the admission wire, the sweep's results and journal,
    the telemetry snapshot and the [BENCH_*.json] artifacts.

    No external JSON package is available in the toolchain, and the
    printed text is part of the system's contract (byte-identical
    transcripts and artifacts), so each number carries the form it
    prints in.  Every float form prints a non-finite value as [null].
    Object member order is preserved. *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** [%d]. *)
  | Int64 of int64  (** [%Ld]: a 64-bit seed prints exactly, past 2{^53} too. *)
  | Num of float
      (** Integral values below 10{^15} in magnitude as [%.0f], others as
          [%.17g], which reads back to the same float.  {!parse} yields
          every number in this form. *)
  | Sig9 of float  (** Integral values below 10{^15} as [%.0f], others as [%.9g]. *)
  | Fixed of int * float
      (** [Fixed (d, x)] prints [x] as [%.*f] with [d] decimals; a value
          that rounds to zero prints unsigned, never as [-0.000]. *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one complete JSON value; trailing non-whitespace is an
    error.  [Error msg] carries a short human-readable reason. *)

val to_string : t -> string
(** Single-line layout: no whitespace, members in list order. *)

val to_string_pretty : t -> string
(** Multi-line layout, with one fixed shape.  The top-level container
    and its direct members print one member per line, indented two
    spaces per level.  Deeper values print on one line with [", "] and
    [": "] separators.  An empty container prints as [{}] or [[]].
    There is no trailing newline. *)

val write_file : string -> t -> unit
(** Write [v] to [path] in the multi-line layout plus a final newline. *)

(** {2 Accessors}

    For parsed values, whose numbers are all [Num]. *)

val member : string -> t -> t option
(** First binding of the key in an object; [None] on non-objects. *)

val to_float : t -> float option
(** [Num] payload. *)

val to_int : t -> int option
(** [Num] payload when exactly integral and at most 10{^9} in
    magnitude. *)

val to_str : t -> string option

val to_list : t -> t list option
