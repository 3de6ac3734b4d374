module Rate = Wsn_radio.Rate
module Phy = Wsn_radio.Phy
module Topology = Wsn_net.Topology
module Digraph = Wsn_graph.Digraph
module Pool = Wsn_parallel.Pool
module Telemetry = Wsn_telemetry.Registry

let m_calls = Telemetry.counter "pricing.heuristic_calls"

let m_adds = Telemetry.counter "pricing.heuristic_adds"

let m_swaps = Telemetry.counter "pricing.heuristic_swaps"

let m_shards_priced = Telemetry.counter "pricing.heuristic_shards"

(* --- carrier-sense locality sharding ------------------------------- *)

(* Links whose endpoints are mutually out of carrier-sense reach
   interact only through residual SINR leakage, so a dual-weight greedy
   can price such groups independently and stitch afterwards (the
   stitch re-validates under the full SINR model, so leakage never
   produces an infeasible column — at worst a stitched link is
   dropped). *)
let shards model universe =
  let universe = List.sort_uniq compare universe in
  match (Model.kernel model, universe) with
  | None, _ | _, [] ->
    (* No geometry to partition by (declared/naive models). *)
    if universe = [] then [] else [ universe ]
  | Some k, _ ->
    let topo = Kernel.topology k in
    let phy = Topology.phy topo in
    let cs = Phy.cs_range phy in
    let links = Array.of_list universe in
    let n = Array.length links in
    let ends =
      Array.map
        (fun l ->
          let e = Topology.link topo l in
          (e.Digraph.src, e.Digraph.dst))
        links
    in
    let parent = Array.init n (fun i -> i) in
    let rec find i =
      if parent.(i) = i then i
      else begin
        let r = find parent.(i) in
        parent.(i) <- r;
        r
      end
    in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then if ra < rb then parent.(rb) <- ra else parent.(ra) <- rb
    in
    let near a b =
      let sa, da = ends.(a) and sb, db = ends.(b) in
      let d u v = Topology.node_distance topo u v in
      d sa sb <= cs || d sa db <= cs || d da sb <= cs || d da db <= cs
    in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if find i <> find j && near i j then union i j
      done
    done;
    (* Components in order of first member (universe is ascending, so
       that is also ascending-minimum order). *)
    let comp_of_root = Hashtbl.create 16 in
    let order = ref [] in
    for i = n - 1 downto 0 do
      let r = find i in
      (match Hashtbl.find_opt comp_of_root r with
       | Some ls -> Hashtbl.replace comp_of_root r (links.(i) :: ls)
       | None ->
         Hashtbl.add comp_of_root r [ links.(i) ];
         order := r :: !order)
    done;
    List.map (Hashtbl.find comp_of_root) (List.sort compare !order)

(* --- feasibility builders ------------------------------------------ *)

(* One abstraction over the two ways to grow an independent set: the
   kernel's incremental add/undo state (hot path), or whole-set
   [Model.max_vector] queries for models without a kernel (declared
   models in the property tests).  [b_value] is the total dual value
   \sum w(l) * mbps(rate l) of the current set under its current
   maximum rates. *)
type builder = {
  b_add : int -> bool;
  b_undo : unit -> unit;
  b_value : unit -> float;
  b_members : unit -> int list;  (* insertion order *)
  b_assignment : unit -> Model.assignment;
}

let kernel_builder k tbl ~weights =
  let st = Kernel.Inc.start k in
  let value () =
    let v = ref 0.0 in
    for p = 0 to Kernel.Inc.size st - 1 do
      let l = Kernel.Inc.member st p in
      v := !v +. (weights l *. Rate.mbps tbl (Kernel.Inc.max_rate st p))
    done;
    !v
  in
  {
    b_add = (fun l -> Kernel.Inc.add st l);
    b_undo = (fun () -> Kernel.Inc.undo st);
    b_value = value;
    b_members = (fun () -> Kernel.Inc.members st);
    b_assignment =
      (fun () ->
        List.init (Kernel.Inc.size st) (fun p ->
            (Kernel.Inc.member st p, Kernel.Inc.max_rate st p)));
  }

let model_builder model tbl ~weights =
  let members = ref [] in
  (* members is kept in reverse insertion order; queries use the
     insertion order so rate vectors align deterministically. *)
  let vector ms =
    match ms with [] -> Some [||] | _ -> Model.max_vector model ms
  in
  let value () =
    let ms = List.rev !members in
    match vector ms with
    | None -> 0.0
    | Some rates ->
      List.fold_left2
        (fun acc l r -> acc +. (weights l *. Rate.mbps tbl r))
        0.0 ms (Array.to_list rates)
  in
  {
    b_add =
      (fun l ->
        if List.mem l !members then false
        else
          match vector (List.rev (l :: !members)) with
          | None -> false
          | Some _ ->
            members := l :: !members;
            true);
    b_undo = (fun () -> members := List.tl !members);
    b_value = value;
    b_members = (fun () -> List.rev !members);
    b_assignment =
      (fun () ->
        let ms = List.rev !members in
        match vector ms with
        | None -> []
        | Some rates -> List.combine ms (Array.to_list rates));
  }

let make_builder model ~weights =
  let tbl = Model.rates model in
  match Model.kernel model with
  | Some k -> kernel_builder k tbl ~weights
  | None -> model_builder model tbl ~weights

(* --- greedy construction and bounded local search ------------------ *)

(* Strict-improvement tolerance of every value comparison. *)
let eps = 1e-9

(* Local-search bounds: eviction candidates per move, and accepted
   moves per call. *)
let evict_width = 8

let max_swaps = 16

(* Value-aware greedy: accept a candidate only when the set's total
   dual value strictly improves (a new link can slow every member
   down, so feasible ≠ profitable). *)
let greedy_extend b candidates =
  List.iter
    (fun l ->
      let before = b.b_value () in
      if b.b_add l then begin
        if b.b_value () > before +. eps then Telemetry.incr m_adds else b.b_undo ()
      end)
    candidates

(* Adds every link of [order] that still fits, with no value test —
   used to reconstruct a known-good set minus one member. *)
let force_build b order = List.iter (fun l -> ignore (b.b_add l : bool)) order

let max_weight_independent ?shards:shard_arg model ~weights ~universe =
  Telemetry.incr m_calls;
  let tbl = Model.rates model in
  let mbps r = Rate.mbps tbl r in
  (* Candidates: positive-weight live links, best-case value first,
     ties broken by link id — a total deterministic order. *)
  let candidates =
    List.filter_map
      (fun l ->
        if weights l <= eps then None
        else
          match Model.alone_best model l with
          | None -> None
          | Some best -> Some (l, weights l *. mbps best))
      (List.sort_uniq compare universe)
    |> List.sort (fun (la, a) (lb, b) ->
           if a <> b then Float.compare b a else compare la lb)
    |> List.map fst
  in
  if candidates = [] then None
  else begin
    let in_candidates = Hashtbl.create (List.length candidates) in
    List.iter (fun l -> Hashtbl.replace in_candidates l ()) candidates;
    (* Shard-local greedy, fanned across the domain pool.  Each shard
       keeps the global candidate (value) order restricted to its own
       links and prices on a forked view, so concurrent shards never
       race on memo tables.  [Pool.map] returns results in input
       order, making the stitch independent of scheduling. *)
    let shard_orders =
      match shard_arg with
      | None | Some [] -> [| candidates |]
      | Some ss ->
        Array.of_list
          (List.filter_map
             (fun shard ->
               let in_shard = Hashtbl.create 16 in
               List.iter
                 (fun l ->
                   if Hashtbl.mem in_candidates l then Hashtbl.replace in_shard l ())
                 shard;
               match List.filter (Hashtbl.mem in_shard) candidates with
               | [] -> None
               | cs -> Some cs)
             ss)
    in
    let shard_picks =
      if Array.length shard_orders <= 1 then
        Array.map
          (fun order ->
            let b = make_builder model ~weights in
            greedy_extend b order;
            Telemetry.incr m_shards_priced;
            b.b_members ())
          shard_orders
      else
        Pool.map (Pool.global ())
          (fun order ->
            let view = Model.fork_view model in
            let b = make_builder view ~weights in
            greedy_extend b order;
            Telemetry.incr m_shards_priced;
            b.b_members ())
          shard_orders
    in
    (* Stitch shard-local sets under the full model: value-tested adds
       in shard order, so residual cross-shard SINR leakage can only
       drop a link, never admit an infeasible column. *)
    let b = ref (make_builder model ~weights) in
    Array.iter (fun picks -> greedy_extend !b picks) shard_picks;
    (* One global pass catches candidates freed by dropped links. *)
    greedy_extend !b candidates;
    (* Bounded 1-out/greedy-in local search: evict one member, rebuild
       the rest, refill greedily; adopt the first strict improvement
       and repeat.  Each trial uses a fresh builder, so the undo
       discipline stays LIFO.  Only the [evict_width]
       lowest-contribution members are eviction candidates (evicting a
       high-value member rarely pays), and the accepted-move budget
       [max_swaps] bounds the wall time: each trial is
       O(|universe| · |set|), independent of how large the greedy set
       grew. *)
    let budget = ref max_swaps in
    let continue_ = ref true in
    while !continue_ do
      continue_ := false;
      let value = (!b).b_value () in
      let members = (!b).b_members () in
      let evictable =
        (!b).b_assignment ()
        |> List.map (fun (l, r) -> (weights l *. mbps r, l))
        |> List.sort (fun (va, la) (vb, lb) ->
               if va <> vb then Float.compare va vb else compare la lb)
        |> List.filteri (fun i _ -> i < evict_width)
        |> List.map snd
      in
      let rec try_evict = function
        | [] -> ()
        | out :: rest ->
          let keep = List.filter (fun l -> l <> out) members in
          let trial = make_builder model ~weights in
          force_build trial keep;
          greedy_extend trial
            (List.filter (fun l -> not (List.mem l keep)) candidates);
          if trial.b_value () > value +. eps then begin
            Telemetry.incr m_swaps;
            b := trial;
            decr budget;
            continue_ := !budget > 0
          end
          else try_evict rest
      in
      try_evict evictable
    done;
    let assignment = (!b).b_assignment () in
    if assignment = [] then None else Some (assignment, (!b).b_value ())
  end

(* Re-value an assignment under a (possibly different) weight vector:
   column generation searches under smoothed duals but accepts against
   the true reduced cost, so the two valuations must share one float
   evaluation order — this left fold is it. *)
let value model ~weights assignment =
  let tbl = Model.rates model in
  List.fold_left (fun acc (l, r) -> acc +. (weights l *. Rate.mbps tbl r)) 0.0 assignment
