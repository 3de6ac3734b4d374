type edge = { id : int; src : int; dst : int }

type t = {
  n : int;
  mutable edges_rev : edge list;
  mutable n_edges : int;
  out_adj : edge list array;  (* reversed insertion order per node *)
  in_adj : edge list array;
  mutable by_id : edge array;  (* resized on demand *)
}

let create n =
  if n < 0 then invalid_arg "Digraph.create: negative node count";
  {
    n;
    edges_rev = [];
    n_edges = 0;
    out_adj = Array.make (max n 1) [];
    in_adj = Array.make (max n 1) [];
    by_id = Array.make 16 { id = -1; src = -1; dst = -1 };
  }

let n_nodes t = t.n

let n_edges t = t.n_edges

let check_node t v name =
  if v < 0 || v >= t.n then invalid_arg (Printf.sprintf "Digraph.%s: node %d out of range" name v)

let add_edge t ~src ~dst =
  check_node t src "add_edge";
  check_node t dst "add_edge";
  if src = dst then invalid_arg "Digraph.add_edge: self-loop";
  let e = { id = t.n_edges; src; dst } in
  t.edges_rev <- e :: t.edges_rev;
  t.n_edges <- t.n_edges + 1;
  t.out_adj.(src) <- e :: t.out_adj.(src);
  t.in_adj.(dst) <- e :: t.in_adj.(dst);
  if e.id >= Array.length t.by_id then begin
    let bigger = Array.make (2 * Array.length t.by_id) e in
    Array.blit t.by_id 0 bigger 0 (Array.length t.by_id);
    t.by_id <- bigger
  end;
  t.by_id.(e.id) <- e;
  e

let edge t id =
  if id < 0 || id >= t.n_edges then invalid_arg "Digraph.edge: id out of range";
  t.by_id.(id)

let out_edges t v =
  check_node t v "out_edges";
  List.rev t.out_adj.(v)

let in_edges t v =
  check_node t v "in_edges";
  List.rev t.in_adj.(v)

let edges t = List.rev t.edges_rev

let find_edge t ~src ~dst =
  check_node t src "find_edge";
  List.find_opt (fun e -> e.dst = dst) (out_edges t src)

let touching t v =
  check_node t v "touching";
  List.filter (fun e -> e.src = v || e.dst = v) (edges t)
