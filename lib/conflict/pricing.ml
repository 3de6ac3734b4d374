module Rate = Wsn_radio.Rate
module Pool = Wsn_parallel.Pool
module Telemetry = Wsn_telemetry.Registry

let m_nodes = Telemetry.counter "pricing.nodes"

(* The branch-and-bound forest splits into one subtree per root
   candidate — the first candidate (in decreasing best-case-value
   order) the assignment includes — so subtrees can be searched on
   separate domains.  Determinism does not depend on the interleaving:

   - Recording is strict ([value > best], no epsilon), so each subtree
     returns the first-in-its-DFS-order occurrence of its maximum, and
     folding the subtree results in root order with the same strict
     compare yields the first-in-global-DFS-order occurrence of the
     global maximum — exactly what a sequential strict-recording run
     computes.
   - The shared incumbent bound only ever holds the value of some
     explored assignment, hence is [<=] the global maximum, and a
     branch is cut only when its optimistic potential is strictly
     below the bound — such a branch cannot contain any occurrence of
     the maximum, so pruning (however the domains race) never changes
     which occurrence wins.

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
  let mbps r = Rate.mbps tbl r in
  (* Candidates: positive-weight live links, best-case value first. *)
  let candidates =
    List.filter_map
      (fun l ->
        if weights l <= eps then None
        else
          match Model.alone_best model l with
          | None -> None
          | Some best -> Some (l, weights l, weights l *. mbps best))
      (List.sort_uniq compare universe)
    |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a)
    |> Array.of_list
  in
  let n = Array.length candidates in
  if n = 0 then None
  else begin
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
    (* first.(c).(i): index in [cover.(c)] of its first position >= i. *)
    let first =
      Array.map
        (fun members ->
          let f = Array.make (n + 1) (Array.length members) in
          for i = n - 1 downto 0 do
            f.(i) <- f.(i + 1);
            if f.(i) > 0 && members.(f.(i) - 1) = i then f.(i) <- f.(i) - 1
          done;
          f)
        cover
    in
    (* Monotone incumbent value, shared across subtrees for pruning. *)
    let bound = Atomic.make 0.0 in
    let rec publish v =
      let cur = Atomic.get bound in
      if v > cur && not (Atomic.compare_and_set bound cur v) then publish v
    in
    (* Search one subtree: all assignments whose first included
       candidate is [root].  [try_rates] enumerates the feasible rates
       of candidate [i] given the search state and runs [enter] on
       each; state save/restore brackets the recursion. *)
    let subtree ~try_rates root =
      let best_value = ref 0.0 in
      let best_assignment = ref [] in
      let nodes = ref 0 in
      (* Row [d] of [blocked]: the positions hard-conflicting with one
         of the [d] members chosen on the current path. *)
      let blocked = Array.make ((n + 1) * words) 0 in
      (* Best additional value collectable from positions [i..] at
         depth [d]: the first unblocked member of each cover clique. *)
      let potential d i =
        let total = ref 0.0 in
        for c = 0 to Array.length cover - 1 do
          let members = cover.(c) in
          let k = ref first.(c).(i) in
          while !k < Array.length members && mem blocked (d * words) members.(!k) do
            incr k
          done;
          if !k < Array.length members then total := !total +. best_case.(members.(!k))
        done;
        !total
      in
      (* Row [d + 1] := row [d] ∪ the conflicts of position [i]. *)
      let choose d i =
        for x = 0 to words - 1 do
          blocked.(((d + 1) * words) + x) <- blocked.((d * words) + x) lor rows.((i * words) + x)
        done
      in
      let record assignment value =
        if value > !best_value then begin
          best_value := value;
          best_assignment := List.rev assignment;
          publish value
        end
      in
      let rec branch d i assignment value =
        incr nodes;
        record assignment value;
        (* A blocked candidate would fail [try_rates] (hard conflicts
           are anti-monotone): step over it without trying. *)
        let i = ref i in
        while !i < n && mem blocked (d * words) !i do
          incr i
        done;
        let i = !i in
        if i < n then begin
          let optimistic = (value +. potential d i) *. slack in
          if optimistic > !best_value && optimistic >= Atomic.get bound then begin
            let l, w, _ = candidates.(i) in
            choose d i;
            try_rates i (fun r ->
                branch (d + 1) (i + 1) ((l, r) :: assignment) (value +. (w *. mbps r)));
            (* Or skip it. *)
            branch d (i + 1) assignment value
          end
        end
      in
      (* A whole subtree strictly below the incumbent cannot contain
         any occurrence of the maximum. *)
      if potential 0 root *. slack >= Atomic.get bound then begin
        let l, w, _ = candidates.(root) in
        choose 0 root;
        try_rates root (fun r -> branch 1 (root + 1) [ (l, r) ] (w *. mbps r))
      end;
      Telemetry.add m_nodes !nodes;
      (!best_value, !best_assignment)
    in
    let roots = Array.init n (fun i -> i) in
    let results =
      match Model.kernel model with
      | Some k ->
        (* Incremental search: one [Inc.add] per candidate link serves
           every rate branch (interference is rate-independent).  A
           chosen-rate vector over the current set is feasible iff the
           set is independent and each chosen rate is no faster than
           the member's current maximum — exactly what the naive
           path's per-rate [Model.feasible] calls establish, so both
           paths explore identical branches in identical order.
           [Inc.add] touches only its own state and the kernel's
           read-only tables (never the shared memo), so subtrees with
           per-domain states search one kernel concurrently. *)
        Pool.map (Pool.global ())
          (fun root ->
            let st = Kernel.Inc.start k in
            let chosen = Array.make n 0 in
            let try_rates i enter =
              let l, _, _ = candidates.(i) in
              if Kernel.Inc.add st l then begin
                let sz = Kernel.Inc.size st in
                let members_still_support_chosen =
                  let ok = ref true in
                  for p = 0 to sz - 2 do
                    if chosen.(p) < Kernel.Inc.max_rate st p then ok := false
                  done;
                  !ok
                in
                if members_still_support_chosen then begin
                  let rmin = Kernel.Inc.last_max_rate st in
                  List.iter
                    (fun r ->
                      if r >= rmin then begin
                        chosen.(sz - 1) <- r;
                        enter r
                      end)
                    (Model.alone_rates model l)
                end;
                Kernel.Inc.undo st
              end
            in
            subtree ~try_rates root)
          roots
      | None ->
        (* Arbitrary user models carry closures of unknown
           thread-safety; search their subtrees on the caller only. *)
        Array.map
          (fun root ->
            let rev_assignment = ref [] in
            let try_rates i enter =
              let l, _, _ = candidates.(i) in
              List.iter
                (fun r ->
                  let extended = (l, r) :: !rev_assignment in
                  if Model.feasible model (List.rev extended) then begin
                    rev_assignment := extended;
                    enter r;
                    rev_assignment := List.tl !rev_assignment
                  end)
                (Model.alone_rates model l)
            in
            subtree ~try_rates root)
          roots
    in
    let best_value = ref 0.0 in
    let best_assignment = ref [] in
    Array.iter
      (fun (v, a) ->
        if v > !best_value then begin
          best_value := v;
          best_assignment := a
        end)
      results;
    if !best_assignment = [] then None else Some (!best_assignment, !best_value)
  end
