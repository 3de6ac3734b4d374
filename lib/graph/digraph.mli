(** Directed multigraphs over dense integer nodes.

    Nodes are the integers [0 .. n_nodes - 1]; edges carry dense integer
    identifiers assigned in insertion order.  The network layer stores
    one directed edge per wireless link (transmitter → receiver);
    parallel edges are permitted. *)

type t
(** A mutable directed multigraph. *)

type edge = { id : int; src : int; dst : int }
(** An edge with its identifier and endpoints. *)

val create : int -> t
(** [create n] is the edgeless graph on nodes [0 .. n-1].
    @raise Invalid_argument if [n < 0]. *)

val n_nodes : t -> int
(** Number of nodes. *)

val n_edges : t -> int
(** Number of edges. *)

val add_edge : t -> src:int -> dst:int -> edge
(** [add_edge t ~src ~dst] inserts a new edge and returns it.
    @raise Invalid_argument if an endpoint is out of range or
    [src = dst] (self-loops are meaningless for radio links). *)

val edge : t -> int -> edge
(** [edge t id] looks an edge up by identifier.
    @raise Invalid_argument if [id] is out of range. *)

val out_edges : t -> int -> edge list
(** Edges leaving a node, in insertion order. *)

val in_edges : t -> int -> edge list
(** Edges entering a node, in insertion order. *)

val edges : t -> edge list
(** All edges in insertion order. *)

val find_edge : t -> src:int -> dst:int -> edge option
(** First edge from [src] to [dst], if any. *)

val touching : t -> int -> edge list
(** [touching t v] lists edges with either endpoint equal to [v]. *)
