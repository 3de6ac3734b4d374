module Rate = Wsn_radio.Rate
module Pool = Wsn_parallel.Pool
module Telemetry = Wsn_telemetry.Registry

let m_nodes = Telemetry.counter "pricing.nodes"

(* The branch-and-bound forest splits into one subtree per root
   candidate — the first candidate (in decreasing best-case-value
   order) the assignment includes — so subtrees can be searched on
   separate domains.  Determinism does not depend on the interleaving:

   - Each subtree returns the occurrence of its maximum with the
     smallest (candidate position, rate) list, and folding the subtree
     results in root order with a strict compare yields the smallest
     such occurrence of the global maximum (a subtree's lists all
     start with its root) — exactly what a sequential run computes.
   - The shared incumbent bound only ever holds the value of some
     explored assignment, hence is [<=] the global maximum, and a
     branch is cut only when its optimistic potential is strictly
     below the bound — such a branch cannot contain any occurrence of
     the maximum, so pruning (however the domains race) never changes
     which occurrence wins.  Within a subtree a branch is cut when its
     potential is at most the incumbent, which, being slacked above
     every completion, rules out ties too.

   The potential comes from a clique cover of the candidates'
   hard-conflict graph ({!Model.hard_conflict}): at most one member of
   a cover clique joins any assignment, and none that hard-conflicts
   with a chosen member, so a clique adds at most its first unblocked
   member's best-case value.  The sum is computed in float; [slack]
   keeps it above every completion's float value, so rounding never
   cuts a branch that exact arithmetic keeps. *)

let slack = 1.0 +. 1e-12

(* Position sets as word rows: [words] ints of [bits] bits each,
   starting at [base] in a flat array. *)
let bits = 63

let mem row base p = row.(base + (p / bits)) land (1 lsl (p mod bits)) <> 0

let add row base p = row.(base + (p / bits)) <- row.(base + (p / bits)) lor (1 lsl (p mod bits))

let max_weight_independent ?(eps = 1e-9) model ~weights ~universe =
  let tbl = Model.rates model in
  let mbps = Array.init (Rate.n_rates tbl) (Rate.mbps tbl) in
  (* Candidates: positive-weight live links, best-case value first. *)
  let candidates =
    List.filter_map
      (fun l ->
        let w = weights l in
        if w <= eps then None
        else
          match Model.alone_best model l with
          | None -> None
          | Some best -> Some (l, w, w *. mbps.(best)))
      (List.sort_uniq compare universe)
    |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a)
    |> Array.of_list
  in
  let n = Array.length candidates in
  if n = 0 then None
  else begin
    let link = Array.map (fun (l, _, _) -> l) candidates in
    let weight = Array.map (fun (_, w, _) -> w) candidates in
    let best_case = Array.map (fun (_, _, v) -> v) candidates in
    (* Row [p] (at [p * words]): the candidate positions
       hard-conflicting with position [p], itself included. *)
    let words = (n + bits - 1) / bits in
    let rows = Array.make (n * words) 0 in
    for p = 0 to n - 1 do
      let lp, _, _ = candidates.(p) in
      add rows (p * words) p;
      for q = p + 1 to n - 1 do
        let lq, _, _ = candidates.(q) in
        if Model.hard_conflict model lp lq then begin
          add rows (p * words) q;
          add rows (q * words) p
        end
      done
    done;
    (* Greedy clique cover in candidate order: each uncovered position
       opens a clique and admits every later uncovered position that
       hard-conflicts with all its members.  [cover.(c)] lists clique
       [c]'s positions ascending, i.e. by decreasing best-case value. *)
    let covered = Array.make n false in
    let cliques = ref [] in
    for p = 0 to n - 1 do
      if not covered.(p) then begin
        let members = ref [ p ] in
        for q = p + 1 to n - 1 do
          if (not covered.(q)) && List.for_all (mem rows (q * words)) !members then begin
            covered.(q) <- true;
            members := q :: !members
          end
        done;
        cliques := Array.of_list (List.rev !members) :: !cliques
      end
    done;
    let cover = Array.of_list (List.rev !cliques) in
    let n_cliques = Array.length cover in
    (* Clique [c]'s positions as a word row at [c * words], and its
       last (largest) position. *)
    let clique_rows = Array.make (n_cliques * words) 0 in
    Array.iteri (fun c members -> Array.iter (add clique_rows (c * words)) members) cover;
    let last = Array.map (fun members -> members.(Array.length members - 1)) cover in
    (* Monotone incumbent value, shared across subtrees for pruning. *)
    let bound = Atomic.make 0.0 in
    let rec publish v =
      let cur = Atomic.get bound in
      if v > cur && not (Atomic.compare_and_set bound cur v) then publish v
    in
    (* Search one subtree: all assignments whose first included
       candidate is [root].  [extend value i enter] runs [enter] on the
       value of each child that includes candidate [i] in a node worth
       [value], and [current ()] lists the node's (candidate position,
       rate) pairs in insertion order; state save/restore brackets the
       recursion. *)
    let subtree ~extend ~current root =
      let best_value = ref 0.0 in
      let best_key = ref [] in
      let nodes = ref 0 in
      (* Row [d] of [blocked]: the positions hard-conflicting with one
         of the [d] members chosen on the current path.  Row 0 stays
         empty; row [d + 1] is written before any read below it. *)
      let blocked = Array.make ((n + 1) * words) 0 in
      (* Best additional value collectable from positions [i..] at
         depth [d]: the first unblocked member of each cover clique, a
         clique's lowest set bit of its row minus the blocked positions
         and those below [i].  A clique with nothing left adds no term. *)
      let potential d i =
        let total = ref 0.0 in
        let x0 = i / bits in
        let below = (1 lsl (i mod bits)) - 1 in
        for c = 0 to n_cliques - 1 do
          if last.(c) >= i then begin
            let x = ref x0 in
            let m = ref (clique_rows.((c * words) + x0) land lnot (below lor blocked.((d * words) + x0))) in
            while !m = 0 && !x < words - 1 do
              incr x;
              m := clique_rows.((c * words) + !x) land lnot blocked.((d * words) + !x)
            done;
            if !m <> 0 then total := !total +. best_case.((!x * bits) + Bitset.lowest_bit !m)
          end
        done;
        !total
      in
      (* Row [d + 1] := row [d] ∪ the conflicts of position [i]. *)
      let choose d i =
        for x = 0 to words - 1 do
          blocked.(((d + 1) * words) + x) <- blocked.((d * words) + x) lor rows.((i * words) + x)
        done
      in
      (* A strictly better node wins; an exactly equal one wins when
         its key is smaller — the order in which a search branching on
         every rate meets its nodes, which the set search must
         reproduce to return the same column. *)
      let record value =
        if value > !best_value then begin
          best_value := value;
          best_key := current ();
          publish value
        end
        else if Float.equal value !best_value then begin
          let key = current () in
          if compare key !best_key < 0 then best_key := key
        end
      in
      let rec branch d i value =
        incr nodes;
        record value;
        descend d i value
      (* The children of a node worth [value] at depth [d] from
         candidate [i] on. *)
      and descend d i value =
        (* A blocked candidate would fail [extend] (hard conflicts
           are anti-monotone): step over it without trying. *)
        let i = ref i in
        while !i < n && mem blocked (d * words) !i do
          incr i
        done;
        let i = !i in
        if i < n then begin
          let optimistic = (value +. potential d i) *. slack in
          if optimistic > !best_value && optimistic >= Atomic.get bound then begin
            choose d i;
            extend value i (branch (d + 1) (i + 1));
            (* Or skip it: a node with its parent's members, value
               and key, which [record] already saw — the incumbent
               only grew or took a smaller key since, so recording
               it again could change nothing. *)
            incr nodes;
            descend d (i + 1) value
          end
        end
      in
      (* A whole subtree strictly below the incumbent cannot contain
         any occurrence of the maximum. *)
      if potential 0 root *. slack >= Atomic.get bound then begin
        choose 0 root;
        extend 0.0 root (branch 1 (root + 1))
      end;
      Telemetry.add m_nodes !nodes;
      (!best_value, !best_key)
    in
    let roots = Array.init n (fun i -> i) in
    let results =
      match Model.kernel model with
      | Some k ->
        (* Set search: one child per accepted [Inc.add].  Interference
           is rate-independent and members' maximum rates only fall as
           links join, so a set at its maximum rate vector is worth at
           least any other feasible vector of it, and every prefix of
           a set is worth at least its share of the whole — the clique
           bound holds as it does for rate branching.  A node is valued
           in insertion order from [0.0], the sum a rate-branching
           search accumulates along the path to that vector.  [Inc.add]
           touches only its own state and the kernel's read-only tables
           (never the shared memo), so subtrees with per-subtree states
           search one kernel concurrently. *)
        Pool.map (Pool.global ())
          (fun root ->
            let st = Kernel.Inc.start k in
            (* pos.(p): candidate position of the [p]-th member. *)
            let pos = Array.make n 0 in
            let extend _ i enter =
              if Kernel.Inc.add st link.(i) then begin
                let sz = Kernel.Inc.size st in
                pos.(sz - 1) <- i;
                let value = ref 0.0 in
                for p = 0 to sz - 1 do
                  value := !value +. (weight.(pos.(p)) *. mbps.(Kernel.Inc.max_rate st p))
                done;
                enter !value;
                Kernel.Inc.undo st
              end
            in
            let current () =
              List.init (Kernel.Inc.size st) (fun p -> (pos.(p), Kernel.Inc.max_rate st p))
            in
            subtree ~extend ~current root)
          roots
      | None ->
        (* A declared predicate need not be monotone in rate, so a set's
           best vector is not read off the set: branch on every alone
           rate and test each extension.  Arbitrary user models carry
           closures of unknown thread-safety; search their subtrees on
           the caller only. *)
        Array.map
          (fun root ->
            (* (position, rate) pairs, newest first. *)
            let path = ref [] in
            let extend value i enter =
              let w = weight.(i) in
              List.iter
                (fun r ->
                  let extended = (i, r) :: !path in
                  if Model.feasible model (List.rev_map (fun (p, r) -> (link.(p), r)) extended)
                  then begin
                    path := extended;
                    enter (value +. (w *. mbps.(r)));
                    path := List.tl !path
                  end)
                (Model.alone_rates model link.(i))
            in
            subtree ~extend ~current:(fun () -> List.rev !path) root)
          roots
    in
    let best_value = ref 0.0 in
    let best_key = ref [] in
    Array.iter
      (fun (v, key) ->
        if v > !best_value then begin
          best_value := v;
          best_key := key
        end)
      results;
    if !best_key = [] then None
    else Some (List.map (fun (p, r) -> (link.(p), r)) !best_key, !best_value)
  end
