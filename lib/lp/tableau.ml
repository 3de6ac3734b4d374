module Telemetry = Wsn_telemetry.Registry

let m_solves = Telemetry.counter "lp.solves"

let m_pivots = Telemetry.counter "lp.pivots"

let m_phase1_iters = Telemetry.counter "lp.phase1_iters"

let m_phase2_iters = Telemetry.counter "lp.phase2_iters"

let m_warm_resolves = Telemetry.counter "lp.warm_resolves"

let m_columns_added = Telemetry.counter "lp.columns_added"

let m_degenerate = Telemetry.counter "lp.degenerate_pivots"

let m_candidates = Telemetry.counter "lp.pricing_candidates"

let h_resolve_pivots = Telemetry.histogram "lp.pivots_per_resolve"

let m_predicts = Telemetry.counter "lp.predicts"

let m_predict_repivots = Telemetry.counter "lp.predict_repivots"

let m_elim_cells = Telemetry.counter "lp.elim_cells"

type pricing = Dantzig | Devex

type result =
  | Optimal of { x : float array; objective : float; duals : float array }
  | Unbounded
  | Infeasible

let eps = 1e-9

(* Internal mutable tableau, stored as one row-major [float array] of
   [m + 1] rows with stride [cap + 1] (no per-row indirection, no
   bounds checks in the pivot loops).  [m] constraint rows plus one
   objective row; the right-hand side lives at the fixed column [cap]
   (the allocated width), so logical columns can grow to [cap] without
   moving it.  Row operations touch only the live columns [0, ncols)
   and the rhs cell, so the spare columns [ncols, cap) are never
   written and stay exactly [+0.0] — [add_column] accumulates a fresh
   column on top of them.  [basis.(i)] is the column basic in row [i].
   The objective row encodes [z - c·x = 0] (entries [-c_j], value cell
   = current objective of a maximisation), so a column may enter while
   its entry is below -eps.

   [support] is the pivot's scratch (see {!pivot}) and [snap] /
   [snap_basis] the rollback copy of [data] / [basis].  All three belong
   to the tableau, never to the module, so tableaux solved on different
   domains share no mutable state. *)
type tab = {
  mutable data : float array;  (* (m+1) × (cap+1), row-major *)
  m : int;
  mutable ncols : int;  (* logical columns *)
  mutable cap : int;  (* allocated columns; rhs lives at column [cap] *)
  basis : int array;
  n_struct : int;  (* structural columns: originals plus slack/surplus *)
  n_art : int;  (* artificials occupy [n_struct, n_struct + n_art) *)
  mutable support : int array;  (* length cap + 1 *)
  mutable snap : float array;  (* sized on first save, re-sized after growth *)
  snap_basis : int array;
}

let stride tab = tab.cap + 1

let get tab i j = tab.data.((i * stride tab) + j)

let set tab i j x = tab.data.((i * stride tab) + j) <- x

let rhs tab i = get tab i tab.cap

let reduced_cost tab j = get tab tab.m j

let is_artificial tab j = j >= tab.n_struct && j < tab.n_struct + tab.n_art

(* Row operation over the live columns and the rhs cell, same per-cell
   float order as the former [Matrix] version ([x +. a *. y]). *)
let add_scaled_row tab ~src ~dst a =
  if a <> 0.0 then begin
    let d = tab.data in
    let sb = src * stride tab in
    let db = dst * stride tab in
    let upd j =
      Array.unsafe_set d (db + j)
        (Array.unsafe_get d (db + j) +. (a *. Array.unsafe_get d (sb + j)))
    in
    for j = 0 to tab.ncols - 1 do
      upd j
    done;
    upd tab.cap
  end

(* Eliminate basic columns from the objective row so it holds genuine
   reduced costs for the current basis. *)
let price_out tab =
  for i = 0 to tab.m - 1 do
    let j = tab.basis.(i) in
    let r = reduced_cost tab j in
    if Float.abs r > 0.0 then add_scaled_row tab ~src:i ~dst:tab.m (-.r)
  done

(* Pivot on the support of the pivot row.  Scaling gathers the indices
   of the row's nonzero live entries, plus the rhs column, into
   [support]; each row with a nonzero pivot-column entry is then updated
   at those indices only.  A skipped cell would have computed
   [x +. a *. (±0)], which equals [x] up to the sign of a zero result,
   and a skipped scaling leaves a ±0 entry ±0: every nonzero cell is
   bit-identical to a dense pivot.  Signed zeros cannot steer the
   simplex — every test here compares against eps or [0.0], where
   [-0. = +0.] — and the answers quantised for output map [-0.] to
   [0.].  [lp.elim_cells] counts the cells the eliminations write. *)
let pivot tab ~row ~col =
  let d = tab.data in
  let s = stride tab in
  let rb = row * s in
  let a = 1.0 /. Array.unsafe_get d (rb + col) in
  let support = tab.support in
  let nnz = ref 0 in
  for j = 0 to tab.ncols - 1 do
    let v = Array.unsafe_get d (rb + j) in
    if v <> 0.0 then begin
      Array.unsafe_set d (rb + j) (a *. v);
      Array.unsafe_set support !nnz j;
      incr nnz
    end
  done;
  Array.unsafe_set d (rb + tab.cap) (a *. Array.unsafe_get d (rb + tab.cap));
  Array.unsafe_set support !nnz tab.cap;
  let nnz = !nnz + 1 in
  let updated = ref 0 in
  for i = 0 to tab.m do
    if i <> row then begin
      let ib = i * s in
      let coeff = Array.unsafe_get d (ib + col) in
      if Float.abs coeff > 0.0 then begin
        let c = -.coeff in
        for k = 0 to nnz - 1 do
          let j = Array.unsafe_get support k in
          Array.unsafe_set d (ib + j)
            (Array.unsafe_get d (ib + j) +. (c *. Array.unsafe_get d (rb + j)))
        done;
        incr updated
      end
    end
  done;
  tab.basis.(row) <- col;
  Telemetry.incr m_pivots;
  Telemetry.add m_elim_cells (!updated * nnz)

(* Rollback point for the perturbed resolve and the predict re-pivots.
   One copy per tableau, reused across calls; [add_column] never runs
   between a [save] and its [restore], so [data] keeps its size. *)
let save tab =
  if Array.length tab.snap = Array.length tab.data then
    Array.blit tab.data 0 tab.snap 0 (Array.length tab.data)
  else tab.snap <- Array.copy tab.data;
  Array.blit tab.basis 0 tab.snap_basis 0 tab.m

let restore tab =
  Array.blit tab.snap 0 tab.data 0 (Array.length tab.data);
  Array.blit tab.snap_basis 0 tab.basis 0 tab.m

(* Entering column: Dantzig rule (most negative reduced cost) normally,
   Bland rule (lowest eligible index) once [bland] is set. *)
let entering tab ~allowed ~bland =
  let d = tab.data in
  let zb = tab.m * stride tab in
  if bland then begin
    let found = ref None in
    (try
       for j = 0 to tab.ncols - 1 do
         if allowed j && Array.unsafe_get d (zb + j) < -.eps then begin
           found := Some j;
           raise Exit
         end
       done
     with Exit -> ());
    !found
  end
  else begin
    let best = ref None in
    for j = 0 to tab.ncols - 1 do
      if allowed j then begin
        let r = Array.unsafe_get d (zb + j) in
        if r < -.eps then
          match !best with
          | Some (_, rb) when rb <= r -> ()
          | _ -> best := Some (j, r)
      end
    done;
    Option.map fst !best
  end

(* Leaving row: minimum ratio test, ties broken by the smallest basic
   column index (lexicographic safeguard against cycling). *)
let leaving tab ~col =
  let d = tab.data in
  let s = stride tab in
  let best = ref None in
  for i = 0 to tab.m - 1 do
    let a = Array.unsafe_get d ((i * s) + col) in
    if a > eps then begin
      let ratio = Array.unsafe_get d ((i * s) + tab.cap) /. a in
      match !best with
      | None -> best := Some (i, ratio)
      | Some (bi, br) ->
        if ratio < br -. eps || (ratio < br +. eps && tab.basis.(i) < tab.basis.(bi)) then
          best := Some (i, ratio)
    end
  done;
  Option.map fst !best

type phase_outcome = Finished | Unbounded_phase

let optimise tab ~allowed ~iters =
  let max_iters = 200 * (tab.m + tab.ncols + 10) in
  let bland_after = 20 * (tab.m + tab.ncols + 10) in
  let rec loop iter =
    if iter > max_iters then failwith "Tableau.optimise: iteration cap exceeded";
    match entering tab ~allowed ~bland:(iter > bland_after) with
    | None -> Finished
    | Some col -> (
      match leaving tab ~col with
      | None -> Unbounded_phase
      | Some row ->
        if rhs tab row <= eps then Telemetry.incr m_degenerate;
        pivot tab ~row ~col;
        Telemetry.incr iters;
        loop (iter + 1))
  in
  loop 0

(* A solved tableau kept warm for column generation: appended columns
   land after the artificials, and the per-row signature columns (slack
   for Le, artificial for Ge/Eq; each entered the initial tableau as
   +e_i) hold B⁻¹e_i under the current basis, which is what pricing a
   new column into the tableau needs. *)
type state = {
  tab : tab;
  n : int;  (* caller's original columns: x indices [0, n) *)
  first_appended : int;
  flip : float array;
  sig_col : int array;
  rhs0 : float array;  (* normalised b — the perturbation clean-up's ground truth *)
  pricing : pricing;
  perturb : bool;
  mutable devex_w : float array;  (* Devex reference weights, length = cap *)
  mutable appended : int;
}

(* Devex reference-weight pricing with a candidate list (partial
   pricing).  The entering column maximises r_j² / w_j over a short
   list harvested by one full scan; each iteration re-prices only the
   survivors (the reduced costs move under pivots, membership does
   not), and the list is rebuilt when it runs dry.  Weights approximate
   steepest-edge norms w.r.t. the reference framework of the last reset
   and are updated from the pivot row; they persist across warm
   resolves in [devex_w].  Past the stall threshold — counted from this
   entry, i.e. per resolve, never across the tableau's lifetime — the
   loop degrades to Bland's rule, keeping the Dantzig path's
   termination guarantee. *)
let cand_cap = 64

let optimise_devex st ~allowed ~iters =
  let tab = st.tab in
  let w = st.devex_w in
  let max_iters = 200 * (tab.m + tab.ncols + 10) in
  let bland_after = 20 * (tab.m + tab.ncols + 10) in
  let score j =
    let r = reduced_cost tab j in
    if r < -.eps then r *. r /. w.(j) else -1.0
  in
  let cand = Array.make cand_cap (-1) in
  let n_cand = ref 0 in
  (* Harvest up to [cand_cap] candidates with the best scores in a
     single pass (linear min-replacement). *)
  let rebuild () =
    n_cand := 0;
    let scores = Array.make cand_cap 0.0 in
    let worst = ref 0 in
    let refresh_worst () =
      worst := 0;
      for k = 1 to cand_cap - 1 do
        if scores.(k) < scores.(!worst) then worst := k
      done
    in
    for j = 0 to tab.ncols - 1 do
      if allowed j then begin
        let s = score j in
        if s > 0.0 then
          if !n_cand < cand_cap then begin
            cand.(!n_cand) <- j;
            scores.(!n_cand) <- s;
            incr n_cand;
            if !n_cand = cand_cap then refresh_worst ()
          end
          else if s > scores.(!worst) then begin
            cand.(!worst) <- j;
            scores.(!worst) <- s;
            refresh_worst ()
          end
      end
    done;
    Telemetry.add m_candidates !n_cand
  in
  (* Best still-eligible candidate under current reduced costs;
     ineligible entries are swap-removed. *)
  let pick () =
    let best = ref (-1) and best_s = ref 0.0 in
    let k = ref 0 in
    while !k < !n_cand do
      let j = cand.(!k) in
      let s = score j in
      if s <= 0.0 then begin
        decr n_cand;
        cand.(!k) <- cand.(!n_cand)
      end
      else begin
        if s > !best_s then begin
          best := j;
          best_s := s
        end;
        incr k
      end
    done;
    !best
  in
  let enter () =
    let j = pick () in
    if j >= 0 then Some j
    else begin
      (* An empty rebuild scanned every column: proof of optimality. *)
      rebuild ();
      let j = pick () in
      if j >= 0 then Some j else None
    end
  in
  (* Reference update from the post-pivot row r (whose entries are
     exactly alpha_rj / alpha_rq); the leaving column gets the dual
     form, and the framework resets once weights overflow. *)
  let update_weights ~r ~q ~alpha_rq ~wq ~jl =
    let d = tab.data in
    let base = r * stride tab in
    let overgrown = ref false in
    for j = 0 to tab.ncols - 1 do
      if j <> q then begin
        let a = Array.unsafe_get d (base + j) in
        if a <> 0.0 then begin
          let cw = a *. a *. wq in
          if cw > w.(j) then begin
            w.(j) <- cw;
            if cw > 1e9 then overgrown := true
          end
        end
      end
    done;
    let wl = wq /. (alpha_rq *. alpha_rq) in
    w.(jl) <- (if wl > 1.0 then wl else 1.0);
    w.(q) <- 1.0;
    if !overgrown || w.(jl) > 1e9 then Array.fill w 0 (Array.length w) 1.0
  in
  let rec loop iter =
    if iter > max_iters then failwith "Tableau.optimise: iteration cap exceeded";
    let col = if iter > bland_after then entering tab ~allowed ~bland:true else enter () in
    match col with
    | None -> Finished
    | Some q -> (
      match leaving tab ~col:q with
      | None -> Unbounded_phase
      | Some r ->
        if rhs tab r <= eps then Telemetry.incr m_degenerate;
        let alpha_rq = get tab r q in
        let wq = w.(q) in
        let jl = tab.basis.(r) in
        pivot tab ~row:r ~col:q;
        update_weights ~r ~q ~alpha_rq ~wq ~jl;
        Telemetry.incr iters;
        loop (iter + 1))
  in
  loop 0

let extract st =
  let tab = st.tab in
  let x = Array.make (st.n + st.appended) 0.0 in
  for i = 0 to tab.m - 1 do
    let j = tab.basis.(i) in
    if j < st.n then x.(j) <- rhs tab i
    else if j >= st.first_appended then x.(st.n + (j - st.first_appended)) <- rhs tab i
  done;
  let duals = Array.init tab.m (fun i -> st.flip.(i) *. get tab tab.m st.sig_col.(i)) in
  Optimal { x; objective = get tab tab.m tab.cap; duals }

let solve_raw ~pricing ~perturb ~a ~b ~c ~senses =
  let m = Array.length a in
  let n = if m = 0 then Array.length c else Array.length a.(0) in
  Array.iter (fun row -> if Array.length row <> n then invalid_arg "Tableau.solve: ragged rows") a;
  if Array.length b <> m then invalid_arg "Tableau.solve: b dimension mismatch";
  if Array.length c <> n then invalid_arg "Tableau.solve: c dimension mismatch";
  if Array.length senses <> m then invalid_arg "Tableau.solve: senses dimension mismatch";
  (* Normalise rows to non-negative right-hand sides.  A [Ge] row with a
     zero right-hand side is also flipped (ax ≥ 0 ⟺ -ax ≤ 0): as a [Le]
     row its slack starts basic and feasible, so it needs no artificial —
     in the bandwidth masters most cover rows are exactly such zero-load
     rows, and this keeps them out of phase 1 entirely.  A flipped row is
     a fresh array: the caller's rows are only read. *)
  let rows = Array.copy a in
  let rhs0 = Array.init m (fun i -> b.(i)) in
  let senses = Array.copy senses in
  let flip = Array.make m 1.0 in
  for i = 0 to m - 1 do
    if rhs0.(i) < 0.0 || (rhs0.(i) = 0.0 && senses.(i) = Types.Ge) then begin
      rows.(i) <- Array.map (fun x -> -1.0 *. x) rows.(i);
      rhs0.(i) <- (if rhs0.(i) = 0.0 then 0.0 else -.rhs0.(i));
      flip.(i) <- -1.0;
      senses.(i) <-
        (match senses.(i) with Types.Le -> Types.Ge | Types.Ge -> Types.Le | Types.Eq -> Types.Eq)
    end
  done;
  (* Column layout: originals, then one slack/surplus per Le/Ge row, then
     one artificial per Ge/Eq row. *)
  let n_slack = Array.fold_left (fun k s -> match s with Types.Le | Types.Ge -> k + 1 | Types.Eq -> k) 0 senses in
  let n_art = Array.fold_left (fun k s -> match s with Types.Ge | Types.Eq -> k + 1 | Types.Le -> k) 0 senses in
  let n_struct = n + n_slack in
  let ncols = n_struct + n_art in
  let data = Array.make ((m + 1) * (ncols + 1)) 0.0 in
  let basis = Array.make m (-1) in
  let tab =
    { data; m; ncols; cap = ncols; basis; n_struct; n_art;
      support = Array.make (ncols + 1) 0; snap = [||]; snap_basis = Array.make m 0 }
  in
  let slack_cursor = ref n in
  let art_cursor = ref n_struct in
  (* Per row, a unit "signature" column whose final objective-row entry
     equals the row's dual value: the slack for Le rows, the artificial
     for Ge/Eq rows (both enter the tableau as +e_i with zero cost). *)
  let sig_col = Array.make m (-1) in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      set tab i j rows.(i).(j)
    done;
    set tab i ncols rhs0.(i);
    (match senses.(i) with
     | Types.Le ->
       set tab i !slack_cursor 1.0;
       basis.(i) <- !slack_cursor;
       sig_col.(i) <- !slack_cursor;
       incr slack_cursor
     | Types.Ge ->
       set tab i !slack_cursor (-1.0);
       incr slack_cursor;
       set tab i !art_cursor 1.0;
       basis.(i) <- !art_cursor;
       sig_col.(i) <- !art_cursor;
       incr art_cursor
     | Types.Eq ->
       set tab i !art_cursor 1.0;
       basis.(i) <- !art_cursor;
       sig_col.(i) <- !art_cursor;
       incr art_cursor)
  done;
  (* Phase 1: minimise the sum of artificials. *)
  if n_art > 0 then begin
    for j = n_struct to ncols - 1 do
      set tab m j 1.0
    done;
    price_out tab;
    (match optimise tab ~allowed:(fun j -> j < tab.ncols) ~iters:m_phase1_iters with
     | Unbounded_phase -> failwith "Tableau.solve: phase 1 unbounded (impossible)"
     | Finished -> ());
    let phase1_value = -.rhs tab m in
    if phase1_value > 1e-7 then raise Exit
  end;
  (* Drive any artificial still basic (at zero level) out of the basis
     when a structural pivot exists; otherwise the row is redundant and
     the artificial stays pinned at zero. *)
  for i = 0 to m - 1 do
    if is_artificial tab tab.basis.(i) then begin
      let found = ref None in
      for j = 0 to n_struct - 1 do
        if !found = None && Float.abs (get tab i j) > eps then found := Some j
      done;
      match !found with Some j -> pivot tab ~row:i ~col:j | None -> ()
    end
  done;
  (* Phase 2: reset the objective row to the real costs (negated, per
     the z-row convention) and optimise. *)
  for j = 0 to tab.cap do
    set tab m j 0.0
  done;
  for j = 0 to n - 1 do
    set tab m j (-.c.(j))
  done;
  price_out tab;
  let st =
    { tab; n; first_appended = n_struct + n_art; flip; sig_col;
      rhs0 = Array.copy rhs0; pricing; perturb;
      devex_w = Array.make tab.cap 1.0; appended = 0 }
  in
  match optimise tab ~allowed:(fun j -> not (is_artificial tab j)) ~iters:m_phase2_iters with
  | Unbounded_phase -> (Unbounded, None)
  | Finished -> (extract st, Some st)

let solve_open ?(pricing = Devex) ?(perturb = true) ~a ~b ~c ~senses () =
  Wsn_telemetry.Span.with_span "lp.solve" (fun () ->
      Telemetry.incr m_solves;
      try solve_raw ~pricing ~perturb ~a ~b ~c ~senses with Exit -> (Infeasible, None))

let solve ~a ~b ~c ~senses = fst (solve_open ~pricing:Dantzig ~perturb:false ~a ~b ~c ~senses ())

(* Append one structural column (cost in the maximisation form;
   [coeffs] in original row order and sign, the stored [flip] is
   re-applied here).  The tableau representation under the current
   basis is B⁻¹a' = Σᵢ a'ᵢ · (column of sig_col(i)), and its objective
   entry y·a' − cost, so the append costs O(m²) with no refactorisation.
   The basis — untouched — stays primal feasible: a {!reoptimize} call
   needs phase 2 only. *)
let add_column st ~coeffs ~cost =
  let tab = st.tab in
  if tab.ncols >= tab.cap then begin
    let cap' = (2 * tab.cap) + 8 in
    let data' = Array.make ((tab.m + 1) * (cap' + 1)) 0.0 in
    let s = stride tab in
    for i = 0 to tab.m do
      Array.blit tab.data (i * s) data' (i * (cap' + 1)) tab.ncols;
      data'.((i * (cap' + 1)) + cap') <- tab.data.((i * s) + tab.cap)
    done;
    tab.data <- data';
    tab.cap <- cap';
    tab.support <- Array.make (cap' + 1) 0
  end;
  if Array.length st.devex_w < tab.cap then begin
    (* Grow the Devex weights alongside; fresh columns join the current
       reference framework at weight 1. *)
    let w' = Array.make tab.cap 1.0 in
    Array.blit st.devex_w 0 w' 0 (Array.length st.devex_w);
    st.devex_w <- w'
  end;
  let j = tab.ncols in
  tab.ncols <- j + 1;
  let a' = Array.make tab.m 0.0 in
  List.iter
    (fun (i, v) ->
      if i < 0 || i >= tab.m then invalid_arg "Tableau.add_column: row out of range";
      a'.(i) <- a'.(i) +. (st.flip.(i) *. v))
    coeffs;
  let d = tab.data in
  let s = stride tab in
  for i = 0 to tab.m - 1 do
    if a'.(i) <> 0.0 then begin
      let sc = st.sig_col.(i) in
      let ai = Array.unsafe_get a' i in
      for r = 0 to tab.m do
        let rb = r * s in
        Array.unsafe_set d (rb + j)
          (Array.unsafe_get d (rb + j) +. (ai *. Array.unsafe_get d (rb + sc)))
      done
    end
  done;
  set tab tab.m j (get tab tab.m j -. cost);
  Telemetry.incr m_columns_added;
  let xi = st.n + st.appended in
  st.appended <- st.appended + 1;
  xi

(* Degenerate-pivot perturbation.  When many basic rows sit at zero the
   ratio test keeps picking zero-length steps; shifting those
   right-hand sides by tiny, deterministic, row-dependent amounts makes
   the ties break at distinct positive ratios.  Afterwards the exact
   right-hand sides are restored through the signature columns — which
   hold B⁻¹e_k under the final basis, so
   [rhs_i = Σ_k rhs0_k · tab(i, sig_col_k)] for every row including the
   objective cell (y·b) — and checked for primal feasibility.  Reduced
   costs never depend on b, so the restored basis stays dual feasible:
   a feasible clean-up is an exact optimum of the *unperturbed*
   problem, with any accumulated rhs drift wiped as a side effect.  If
   the clean-up leaves a negative basic value (or the shift opened an
   unbounded ray) the tableau is rolled back and re-optimised plain. *)
let perturb_threshold = 4

let degenerate_rows tab =
  let k = ref 0 in
  for i = 0 to tab.m - 1 do
    if Float.abs (rhs tab i) <= eps then incr k
  done;
  !k

let cleanup_rhs st =
  let tab = st.tab in
  let s = stride tab in
  let ok = ref true in
  for i = 0 to tab.m do
    let v = ref 0.0 in
    for k = 0 to tab.m - 1 do
      let bk = st.rhs0.(k) in
      if bk <> 0.0 then v := !v +. (bk *. tab.data.((i * s) + st.sig_col.(k)))
    done;
    if i < tab.m then begin
      if !v < -.eps then ok := false;
      set tab i tab.cap (if !v < 0.0 then 0.0 else !v)
    end
    else set tab i tab.cap !v
  done;
  !ok

let reoptimize_raw st =
  let tab = st.tab in
  let allowed j = not (is_artificial tab j) in
  let run () =
    match st.pricing with
    | Dantzig -> optimise tab ~allowed ~iters:m_phase2_iters
    | Devex -> optimise_devex st ~allowed ~iters:m_phase2_iters
  in
  if st.perturb && degenerate_rows tab >= perturb_threshold then begin
    save tab;
    let m = float_of_int tab.m in
    for i = 0 to tab.m - 1 do
      if Float.abs (rhs tab i) <= eps then
        set tab i tab.cap (1e-7 *. (1.0 +. (float_of_int i /. m)))
    done;
    match run () with
    | Finished when cleanup_rhs st -> Finished
    | _ ->
      restore tab;
      run ()
  end
  else run ()

let reoptimize st =
  Wsn_telemetry.Span.with_span "lp.resolve" (fun () ->
      Telemetry.incr m_warm_resolves;
      let p0 = Telemetry.counter_value m_pivots in
      let outcome = reoptimize_raw st in
      Telemetry.observe h_resolve_pivots
        (float_of_int (Telemetry.counter_value m_pivots - p0));
      match outcome with
      | Unbounded_phase -> Unbounded
      | Finished -> extract st)

(* {1 Sensitivity analysis}

   Everything below reads the solved tableau without committing any
   mutation: the optimal basis B is implicit in [basis]/[sig_col], and
   because the signature columns hold B⁻¹e_i, both the dual vector and
   the response of the basic solution to a right-hand-side direction are
   O(m²) reads.  The prediction entry points fall back to a bounded
   re-pivot (dual simplex for rhs moves, primal for cost moves) behind a
   full snapshot/rollback when the perturbation leaves the range over
   which the current basis stays optimal. *)

let basis_snapshot st = Array.copy st.tab.basis

let dual_values st =
  let tab = st.tab in
  Array.init tab.m (fun i -> st.flip.(i) *. get tab tab.m st.sig_col.(i))

let objective_value st = rhs st.tab st.tab.m

(* x index (as used by [extract] results) to tableau column. *)
let tab_col_of_x st xi =
  if xi < 0 || xi >= st.n + st.appended then
    invalid_arg "Tableau: x index out of range";
  if xi < st.n then xi else st.first_appended + (xi - st.n)

let reduced_cost_of st xi = reduced_cost st.tab (tab_col_of_x st xi)

(* Response of every row's rhs cell (objective cell included, at index
   [m]) to a unit step along the caller-row direction [dir]:
   g = B⁻¹ (flip ⊙ dir), read off the signature columns. *)
let direction_column st ~dir =
  let tab = st.tab in
  let g = Array.make (tab.m + 1) 0.0 in
  List.iter
    (fun (k, dk) ->
      if k < 0 || k >= tab.m then invalid_arg "Tableau: direction row out of range";
      let v = st.flip.(k) *. dk in
      if v <> 0.0 then begin
        let sc = st.sig_col.(k) in
        for i = 0 to tab.m do
          g.(i) <- g.(i) +. (v *. get tab i sc)
        done
      end)
    dir;
  g

let rhs_range_of st g =
  let tab = st.tab in
  let lo = ref Float.neg_infinity and hi = ref Float.infinity in
  for i = 0 to tab.m - 1 do
    let gi = g.(i) in
    if gi > eps then begin
      let bound = -.rhs tab i /. gi in
      if bound > !lo then lo := bound
    end
    else if gi < -.eps then begin
      let bound = -.rhs tab i /. gi in
      if bound < !hi then hi := bound
    end
  done;
  (Float.min !lo 0.0, Float.max !hi 0.0)

let rhs_ranging st ~dir = rhs_range_of st (direction_column st ~dir)

(* Build a result from basic values supplied per row, without touching
   the tableau (shape of [extract], values injected). *)
let result_of_rows st ~value_of_row ~objective ~duals =
  let tab = st.tab in
  let x = Array.make (st.n + st.appended) 0.0 in
  for i = 0 to tab.m - 1 do
    let j = tab.basis.(i) in
    let v = value_of_row i in
    let v = if v < 0.0 then 0.0 else v in
    if j < st.n then x.(j) <- v
    else if j >= st.first_appended then x.(st.n + (j - st.first_appended)) <- v
  done;
  Optimal { x; objective; duals = Array.sub duals 0 tab.m }

type dual_outcome = Dual_finished | Dual_infeasible

(* Dual simplex: the basis is dual feasible (reduced costs ≥ -eps) but
   some basic values went negative.  Leaving row = most negative rhs;
   entering column minimises z_j / (-a_rj) over a_rj < -eps so the
   z-row stays non-negative, ties to the smallest column index.  No
   eligible entering column proves primal infeasibility. *)
let dual_simplex st =
  let tab = st.tab in
  let max_iters = 200 * (tab.m + tab.ncols + 10) in
  let d = tab.data in
  let s = stride tab in
  let rec loop iter =
    if iter > max_iters then failwith "Tableau.predict: dual simplex iteration cap exceeded";
    let row = ref (-1) and worst = ref (-.eps) in
    for i = 0 to tab.m - 1 do
      let r = rhs tab i in
      if r < !worst then begin
        worst := r;
        row := i
      end
    done;
    if !row < 0 then Dual_finished
    else begin
      let r = !row in
      let rb = r * s and zb = tab.m * s in
      let best = ref (-1) and best_ratio = ref Float.infinity in
      for j = 0 to tab.ncols - 1 do
        if not (is_artificial tab j) then begin
          let a = Array.unsafe_get d (rb + j) in
          if a < -.eps then begin
            let ratio = Array.unsafe_get d (zb + j) /. -.a in
            if ratio < !best_ratio -. eps then begin
              best := j;
              best_ratio := ratio
            end
          end
        end
      done;
      if !best < 0 then Dual_infeasible
      else begin
        pivot tab ~row:r ~col:!best;
        loop (iter + 1)
      end
    end
  in
  loop 0

let predict_rhs st ~dir ~t =
  Telemetry.incr m_predicts;
  let tab = st.tab in
  let g = direction_column st ~dir in
  let lo, hi = rhs_range_of st g in
  if t >= lo -. eps && t <= hi +. eps then
    (* Inside the optimality range the basis is unchanged: basic values
       and the objective move linearly, the duals not at all. *)
    ( result_of_rows st
        ~value_of_row:(fun i -> rhs tab i +. (t *. g.(i)))
        ~objective:(objective_value st +. (t *. g.(tab.m)))
        ~duals:(dual_values st),
      false )
  else begin
    Telemetry.incr m_predict_repivots;
    save tab;
    for i = 0 to tab.m do
      set tab i tab.cap (rhs tab i +. (t *. g.(i)))
    done;
    let outcome =
      match dual_simplex st with
      | Dual_infeasible -> Infeasible
      | Dual_finished -> (
        (* Clear float drift: clamp the (-eps, 0) residues and let a
           plain primal pass mop up any reduced cost the pivots pushed
           below zero. *)
        for i = 0 to tab.m - 1 do
          if rhs tab i < 0.0 then set tab i tab.cap 0.0
        done;
        match
          optimise tab ~allowed:(fun j -> not (is_artificial tab j)) ~iters:m_phase2_iters
        with
        | Unbounded_phase -> Unbounded
        | Finished -> extract st)
    in
    restore tab;
    (outcome, true)
  end

let cost_ranging st xi =
  let tab = st.tab in
  let j = tab_col_of_x st xi in
  let row = ref (-1) in
  for i = 0 to tab.m - 1 do
    if tab.basis.(i) = j then row := i
  done;
  if !row < 0 then (Float.neg_infinity, Float.max 0.0 (reduced_cost tab j))
  else begin
    (* Raising the basic column's cost by δ turns every other reduced
       cost into z_k + δ·a_rk, which must stay ≥ 0. *)
    let r = !row in
    let lo = ref Float.neg_infinity and hi = ref Float.infinity in
    for k = 0 to tab.ncols - 1 do
      if k <> j && not (is_artificial tab k) then begin
        let a = get tab r k in
        if Float.abs a > eps then begin
          let bound = -.reduced_cost tab k /. a in
          if a > 0.0 then begin
            if bound > !lo then lo := bound
          end
          else if bound < !hi then hi := bound
        end
      end
    done;
    (Float.min !lo 0.0, Float.max !hi 0.0)
  end

let predict_cost st ~col:xi ~delta =
  Telemetry.incr m_predicts;
  let tab = st.tab in
  let j = tab_col_of_x st xi in
  let row = ref (-1) in
  for i = 0 to tab.m - 1 do
    if tab.basis.(i) = j then row := i
  done;
  let lo, hi = cost_ranging st xi in
  if delta >= lo -. eps && delta <= hi +. eps then
    if !row < 0 then (extract st, false)
    else begin
      (* The basis (hence x) is unchanged; the objective moves by
         δ·x_j and each dual by δ·(row r of B⁻¹). *)
      let r = !row in
      let duals = dual_values st in
      for i = 0 to tab.m - 1 do
        duals.(i) <- duals.(i) +. (st.flip.(i) *. delta *. get tab r st.sig_col.(i))
      done;
      ( result_of_rows st
          ~value_of_row:(fun i -> rhs tab i)
          ~objective:(objective_value st +. (delta *. rhs tab r))
          ~duals,
        false )
    end
  else begin
    Telemetry.incr m_predict_repivots;
    save tab;
    set tab tab.m j (get tab tab.m j -. delta);
    if !row >= 0 then add_scaled_row tab ~src:!row ~dst:tab.m delta;
    let outcome =
      match
        optimise tab ~allowed:(fun j -> not (is_artificial tab j)) ~iters:m_phase2_iters
      with
      | Unbounded_phase -> Unbounded
      | Finished -> extract st
    in
    restore tab;
    (outcome, true)
  end
