module Model = Wsn_conflict.Model
module Pricing = Wsn_conflict.Pricing
module Pricing_greedy = Wsn_conflict.Pricing_greedy
module Rate = Wsn_radio.Rate
module Schedule = Wsn_sched.Schedule
module Problem = Wsn_lp.Problem
module Types = Wsn_lp.Types
module Telemetry = Wsn_telemetry.Registry

let m_columns = Telemetry.counter "colgen.columns"

let m_pricing_rounds = Telemetry.counter "colgen.pricing_rounds"

let m_lp_resolves = Telemetry.counter "colgen.lp_resolves"

let m_warm_rounds = Telemetry.counter "colgen.warm_rounds"

let m_pool_hits = Telemetry.counter "colgen.pool_hits"

let m_pool_inserts = Telemetry.counter "colgen.pool_inserts"

let m_heuristic_rounds = Telemetry.counter "colgen.heuristic_rounds"

let m_heuristic_columns = Telemetry.counter "colgen.heuristic_columns"

let m_exact_fallbacks = Telemetry.counter "colgen.exact_fallbacks"

let m_cover_columns = Telemetry.counter "colgen.cover_columns"

let m_uncertified = Telemetry.counter "colgen.uncertified"

let m_stab_widenings = Telemetry.counter "colgen.stab_box_widenings"

let m_whatifs = Telemetry.counter "colgen.whatifs"

let m_whatif_repivots = Telemetry.counter "colgen.whatif_repivots"

type pricer = Exact | Heuristic | Auto

(* Master-LP pricing rule, re-exported so callers need no dependency on
   Wsn_lp.  [Dantzig] is the unstabilised reference arm: textbook
   pricing and no right-hand-side perturbation. *)
type lp_pricing = Dantzig | Devex

let tableau_options = function
  | Dantzig -> (Wsn_lp.Tableau.Dantzig, false)
  | Devex -> (Wsn_lp.Tableau.Devex, true)

let auto_exact_max = 128

(* Columns a heuristic pricing round may batch before the master
   resolves. *)
let heuristic_batch = 8

type result = {
  bandwidth_mbps : float;
  schedule : Schedule.t;
  columns_generated : int;
  columns_pooled : int;
  iterations : int;
  certified : bool;
}

type column = { assignment : Model.assignment; mbps : (int * float) list }

(* A certified optimum's dual story, kept warm: the master tableau with
   its optimal basis, the variable handles needed to read a perturbed
   solution back, and the duals/reduced costs frozen at convergence.
   Built only when the exact pricer certified the final round —
   uncertified brackets have no optimal basis to differentiate. *)
type sensitivity = {
  s_warm : Problem.warm;
  s_f_var : Problem.var;
  s_shortfall_vars : Problem.var array;
  s_u : int array;  (* universe links, row 1+i covers s_u.(i) *)
  s_uindex : (int, int) Hashtbl.t;
  s_background : Flow.t array;
  s_bandwidth : float;
  s_sigma : float;  (* dual of the total-share budget row *)
  s_duals : float array;  (* cover-row duals per universe index, <= 0 *)
  s_set_prices : (Model.assignment * float) list;
}

let big_m = 1e5

let convergence_eps = 1e-7

let column_of_assignment tbl assignment =
  { assignment; mbps = List.map (fun (l, r) -> (l, Rate.mbps tbl r)) assignment }

(* Cross-query column pool: assignments priced in by earlier queries on
   the same model, replayed as extra seed columns for later masters.
   Insertion order is preserved (and deduplication is keyed on the
   link-sorted assignment) so a pool's contribution to a master is a
   deterministic function of the query history. *)
type pool = {
  mutable passignments_rev : Model.assignment list;
  pseen : (Model.assignment, unit) Hashtbl.t;  (* keyed link-sorted *)
}

let create_pool () = { passignments_rev = []; pseen = Hashtbl.create 64 }

let pool_size p = Hashtbl.length p.pseen

let pool_assignments p = List.rev p.passignments_rev

let pool_add p assignment =
  let key = List.sort compare assignment in
  if Hashtbl.mem p.pseen key then false
  else begin
    Hashtbl.add p.pseen key ();
    p.passignments_rev <- assignment :: p.passignments_rev;
    true
  end

(* Per-column supply over the universe as a dense array, so master rows
   index it directly instead of walking association lists. *)
let dense_supply ~uindex ~nu (c : column) =
  let d = Array.make nu 0.0 in
  List.iter (fun (l, m) -> d.(Hashtbl.find uindex l) <- d.(Hashtbl.find uindex l) +. m) c.mbps;
  d

(* Build the restricted master over [columns]: row 0 is the total-share
   budget, row 1+i covers universe link [i] (with big-M shortfall).
   Returns the LP plus the variable handles needed to read a solution. *)
let build_master ~columns ~u ~uindex ~loads ~path =
  let nu = Array.length u in
  let lp = Problem.create ~name:"cg-master" Types.Maximize in
  let f = Problem.add_var lp ~obj:1.0 "f" in
  let lambda =
    List.mapi (fun i (_ : column) -> Problem.add_var lp (Printf.sprintf "lambda%d" i)) columns
  in
  let shortfall =
    Array.mapi (fun _ l -> Problem.add_var lp ~obj:(-.big_m) (Printf.sprintf "s%d" l)) u
  in
  let supplies = List.map (fun c -> dense_supply ~uindex ~nu c) columns in
  Problem.add_constraint lp ~name:"total-share" (List.map (fun v -> (v, 1.0)) lambda) Types.Le 1.0;
  let on_path = Array.map (fun l -> List.mem l path) u in
  Array.iteri
    (fun i l ->
      let supply =
        List.concat
          (List.map2 (fun v d -> if d.(i) <> 0.0 then [ (v, d.(i)) ] else []) lambda supplies)
      in
      let f_term = if on_path.(i) then [ (f, -1.0) ] else [] in
      Problem.add_constraint lp
        ~name:(Printf.sprintf "cover%d" l)
        (((shortfall.(i), 1.0) :: supply) @ f_term)
        Types.Ge loads.(i))
    u;
  (lp, f, lambda, shortfall)

(* Read the pricing inputs out of a master solution: [sigma] for the
   total-share row and one weight per universe index (the negated
   Ge-row dual). *)
let read_duals (s : Problem.solution) ~nu =
  let sigma = s.Problem.row_duals.(0) in
  let weights = Array.init nu (fun i -> -.s.Problem.row_duals.(i + 1)) in
  (sigma, weights)

let total_shortfall (s : Problem.solution) shortfall =
  Array.fold_left (fun acc v -> acc +. s.Problem.values v) 0.0 shortfall

let available_sens ?(max_iterations = 1000) ?(pricer = Exact) ?(shards = 0)
    ?(lp_pricing = Devex) ?(stabilize = true) ?pool model ~background ~path =
  if path = [] then invalid_arg "Column_gen: empty path";
  if List.length (List.sort_uniq compare path) <> List.length path then
    invalid_arg "Column_gen: repeated link in path";
  let tbl = Model.rates model in
  let universe = List.sort_uniq compare (Flow.union_links background @ path) in
  let u = Array.of_list universe in
  let nu = Array.length u in
  let uindex = Hashtbl.create (2 * nu) in
  Array.iteri (fun i l -> Hashtbl.replace uindex l i) u;
  let loads = Array.map (fun l -> Flow.load_on background l) u in
  (* Read a per-universe-index array by link id. *)
  let by_link a l = a.(Hashtbl.find uindex l) in
  (* A demanded link with no rate at all: unschedulable (or a dead link
     on the new path: zero bandwidth, handled by the LP shortfall). *)
  let seed =
    List.filter_map
      (fun l ->
        match Model.alone_best model l with
        | Some r -> Some (column_of_assignment tbl [ (l, r) ])
        | None -> None)
      universe
  in
  Telemetry.add m_columns (List.length seed);
  (* Pooled columns ride along as extra seeds when every link they use
     is in this query's universe; singletons already seeded above are
     skipped so the master never carries an exact duplicate. *)
  let pooled_seed =
    match pool with
    | None -> []
    | Some p ->
      let reusable =
        List.filter
          (fun a ->
            List.for_all (fun (l, _) -> Hashtbl.mem uindex l) a
            && (match a with
                | [ (l, r) ] -> Model.alone_best model l <> Some r
                | _ -> true))
          (pool_assignments p)
      in
      Telemetry.add m_pool_hits (List.length reusable);
      reusable
  in
  let n_pooled = List.length pooled_seed in
  let record_in_pool assignment =
    match pool with
    | Some p -> if pool_add p assignment then Telemetry.incr m_pool_inserts
    | None -> ()
  in
  (* Carrier-sense locality shards for the heuristic pricer, computed
     once per query (the partition depends only on the universe). *)
  let shard_parts =
    lazy
      (match pricer with
       | Exact -> None
       | Heuristic | Auto ->
         (match Pricing_greedy.shards model ~max_shards:shards universe with
          | [] | [ _ ] -> None
          | ss -> Some ss))
  in
  let greedy weights =
    Pricing_greedy.max_weight_independent ?shards:(Lazy.force shard_parts) model ~weights
      ~universe
  in
  (* Cover seeding, heuristic tiers only, past the exact-fallback
     threshold: repeatedly run the greedy with already-covered links
     damped to zero until every link sits in some multi-link column.
     On large masters the initial solve is orders of magnitude cheaper
     per column than a warm resolve (the singleton basis is
     near-diagonal; post-pricing resolves stall on degeneracy), so
     front-loading a spatial-reuse cover lets the first solve already
     clear the big-M shortfall instead of spending the iteration
     budget re-deriving a cover one batch at a time. *)
  let cover_seed =
    match pricer with
    | Exact -> []
    | (Heuristic | Auto) when nu <= auto_exact_max -> []
    | Heuristic | Auto ->
      let used = Hashtbl.create (2 * nu) in
      let w l = if Hashtbl.mem used l then 0.0 else 1.0 +. by_link loads l in
      let pooled_keys = Hashtbl.create 64 in
      List.iter (fun a -> Hashtbl.replace pooled_keys (List.sort compare a) ()) pooled_seed;
      let rec cover acc =
        match greedy w with
        | Some (a, _) ->
          (* A returned set has positive value, hence at least one
             still-unseen link — marking it used guarantees progress
             even when the column itself is a pool duplicate. *)
          List.iter (fun (l, _) -> Hashtbl.replace used l ()) a;
          let fresh = not (Hashtbl.mem pooled_keys (List.sort compare a)) in
          if fresh then record_in_pool a;
          cover (if fresh then a :: acc else acc)
        | None -> List.rev acc
      in
      cover []
  in
  Telemetry.add m_columns (List.length cover_seed);
  Telemetry.add m_cover_columns (List.length cover_seed);
  let seed =
    seed
    @ List.map (column_of_assignment tbl) pooled_seed
    @ List.map (column_of_assignment tbl) cover_seed
  in
  (* Heuristic rounds price a {e batch}: after an improving [first]
     column, the greedy is re-run under the [search] weights with the
     links already used this round damped to zero, forcing disjoint
     supports; every batched column is re-valued under the {e true}
     weights [w] and kept only while it still improves.  Large masters
     then take one LP resolve per batch instead of per column — the
     resolve, not the pricer, dominates wall time past a few hundred
     universe links.  The exact tier stays strictly one column per
     round (the reference behaviour). *)
  let batch_after ~sigma ~w ~search first =
    Telemetry.incr m_heuristic_columns;
    let used = Hashtbl.create 16 in
    let note a = List.iter (fun (l, _) -> Hashtbl.replace used l ()) a in
    note first;
    let damped l = if Hashtbl.mem used l then 0.0 else search l in
    let rec batch acc k =
      if k = 0 then List.rev acc
      else
        match greedy damped with
        | Some (a, _) when Pricing_greedy.value model ~weights:w a > sigma +. convergence_eps ->
          Telemetry.incr m_heuristic_columns;
          note a;
          batch (a :: acc) (k - 1)
        | Some _ | None -> List.rev acc
    in
    first :: batch [] (heuristic_batch - 1)
  in
  (* One pricing round under the configured tier.  The heuristic can
     only under-price, so a round is {e certified} (proves no improving
     column exists) only when the exact pricer had the last word. *)
  let price ~sigma weights =
    Telemetry.incr m_pricing_rounds;
    let w = by_link weights in
    let improving = function
      | Some (assignment, value) when value > sigma +. convergence_eps -> Some assignment
      | Some _ | None -> None
    in
    let heuristic () =
      Telemetry.incr m_heuristic_rounds;
      Option.map (batch_after ~sigma ~w ~search:w) (improving (greedy w))
    in
    let exact () = improving (Pricing.max_weight_independent model ~weights:w ~universe) in
    match pricer with
    | Exact -> (match exact () with Some a -> `Improving [ a ] | None -> `Converged true)
    | Heuristic -> (
        match heuristic () with
        | Some cols -> `Improving cols
        | None ->
          Telemetry.incr m_uncertified;
          `Converged false)
    | Auto -> (
        match heuristic () with
        | Some cols -> `Improving cols
        | None ->
          if nu <= auto_exact_max then begin
            Telemetry.incr m_exact_fallbacks;
            match exact () with Some a -> `Improving [ a ] | None -> `Converged true
          end
          else begin
            Telemetry.incr m_uncertified;
            `Converged false
          end)
  in
  (* Dual stabilisation (boxstep, du Merle-style widening).  The duals
     of a degenerate restricted master oscillate wildly between rounds,
     so the greedy chases noise and appends near-parallel columns.  We
     keep a stability centre — the duals of the last round that priced
     a genuinely improving column — and let the heuristic {e search}
     under the true weights clamped into a box of half-width
     [delta · (1 + |centre_i|)] around the centre.  Acceptance is
     always against the {e true} reduced cost ([Pricing_greedy.value]
     under the true weights vs. the true sigma), so every appended
     column improves the real master and certification semantics are
     untouched.  A failed smoothed round widens the box (×4, counted in
     [colgen.stab_box_widenings]) and retries; once the box swallows
     the true duals the round is exactly the unstabilised one, whose
     verdict — including the exact fallback's certificate — stands.
     The exact tier never sees smoothed duals. *)
  let stab_active = stabilize && pricer <> Exact in
  let stab_centre = ref None in
  let stab_delta = ref 0.125 in
  let price_smoothed ~sigma ~weights ~smoothed =
    Telemetry.incr m_pricing_rounds;
    Telemetry.incr m_heuristic_rounds;
    let w = by_link weights and sw = by_link smoothed in
    match greedy sw with
    | Some (first, _) when Pricing_greedy.value model ~weights:w first > sigma +. convergence_eps
      ->
      Some (batch_after ~sigma ~w ~search:sw first)
    | Some _ | None -> None
  in
  let price_stabilised ~sigma weights =
    if not stab_active then price ~sigma weights
    else
      match !stab_centre with
      | None ->
        (* First round: no centre yet — price plain and adopt these
           duals as the centre (matching the unstabilised float path
           exactly on the opening round). *)
        stab_centre := Some (Array.copy weights);
        price ~sigma weights
      | Some centre ->
        let rec attempt () =
          let smoothed =
            Array.mapi
              (fun i wi ->
                let c = centre.(i) in
                let half = !stab_delta *. (1.0 +. Float.abs c) in
                Float.max (c -. half) (Float.min (c +. half) wi))
              weights
          in
          if Array.for_all2 (fun a b -> Float.equal a b) smoothed weights then begin
            let r = price ~sigma weights in
            (match r with
             | `Improving _ -> stab_centre := Some (Array.copy weights)
             | `Converged _ -> ());
            r
          end
          else
            match price_smoothed ~sigma ~weights ~smoothed with
            | Some cols ->
              stab_centre := Some (Array.copy weights);
              `Improving cols
            | None ->
              Telemetry.incr m_stab_widenings;
              stab_delta := !stab_delta *. 4.0;
              attempt ()
        in
        attempt ()
  in
  let finish ~f ~shares ~shortfall ~columns ~iterations ~certified =
    if shortfall > 1e-6 && certified then None
    else begin
      (* Residual shortfall at an uncertified stop (iteration cap or a
         stalled heuristic) is not an infeasibility proof — more
         columns might still cover the background — so report the only
         safe anytime lower bound, zero, rather than [None].  The [f]
         value is meaningless while the cover is short. *)
      let f = if shortfall > 1e-6 then 0.0 else f in
      let slots =
        List.map2
          (fun (c : column) share ->
            {
              Schedule.links = List.map fst c.assignment;
              rates = List.map snd c.assignment;
              share = Float.max share 0.0;
            })
          columns shares
      in
      Some
        {
          bandwidth_mbps = f;
          schedule = Schedule.make slots;
          (* Pool replays are not "generated" — they were priced by an
             earlier query; count them apart. *)
          columns_generated = List.length columns - n_pooled;
          columns_pooled = n_pooled;
          iterations;
          certified;
        }
    end
  in
  let run () =
    (* One master tableau stays alive across pricing rounds: each round
       appends its improving columns and resumes the simplex from the
       previous (still feasible) basis — phase 2 only, no rebuild. *)
    let lp, f, lambda_seed, shortfall = build_master ~columns:seed ~u ~uindex ~loads ~path in
    Telemetry.incr m_lp_resolves;
    let pricing, perturb = tableau_options lp_pricing in
    match Problem.solve_warm ~pricing ~perturb lp with
    | (Problem.Infeasible | Problem.Unbounded), _ | _, None ->
      failwith "Column_gen: master must be feasible and bounded"
    | Problem.Solution s0, Some w ->
      (* Columns and handles are kept reversed; reversed once at reads. *)
      let columns_rev = ref (List.rev seed) in
      let lambda_rev = ref (List.rev lambda_seed) in
      (* Freeze the dual story of a certified optimum: duals and
         per-column reduced costs under the final basis, plus the
         still-live warm handle for basis-reuse predictions. *)
      let make_sens (s : Problem.solution) = function
        | Some r when r.certified ->
          Some
            {
              s_warm = w;
              s_f_var = f;
              s_shortfall_vars = shortfall;
              s_u = u;
              s_uindex = uindex;
              s_background = Array.of_list background;
              s_bandwidth = r.bandwidth_mbps;
              s_sigma = s.Problem.row_duals.(0);
              s_duals = Array.init nu (fun i -> s.Problem.row_duals.(i + 1));
              s_set_prices =
                List.rev_map2
                  (fun (c : column) v -> (c.assignment, Problem.warm_reduced_cost w v))
                  !columns_rev !lambda_rev;
            }
        | Some _ | None -> None
      in
      let stop (s : Problem.solution) ~iterations ~certified =
        let shares = List.rev_map (fun v -> s.Problem.values v) !lambda_rev in
        finish ~f:(s.Problem.values f) ~shares ~shortfall:(total_shortfall s shortfall)
          ~columns:(List.rev !columns_rev) ~iterations ~certified
      in
      let rec iterate k (s : Problem.solution) =
        if k > max_iterations then begin
          (* Anytime semantics for the heuristic tiers: the master
             optimum over the columns priced so far is a feasible —
             hence valid, merely uncertified — lower bound.  Only the
             exact pricer treats cap exhaustion as a bug. *)
          if pricer = Exact then failwith "Column_gen: did not converge";
          Telemetry.incr m_uncertified;
          (stop s ~iterations:max_iterations ~certified:false, None)
        end
        else begin
          Telemetry.incr m_warm_rounds;
          let sigma, weights = read_duals s ~nu in
          match price_stabilised ~sigma weights with
          | `Improving assignments ->
            List.iter
              (fun assignment ->
                record_in_pool assignment;
                let column = column_of_assignment tbl assignment in
                let terms =
                  (0, 1.0)
                  :: List.map (fun (l, m) -> (1 + Hashtbl.find uindex l, m)) column.mbps
                in
                let v = Problem.add_column w terms in
                columns_rev := column :: !columns_rev;
                lambda_rev := v :: !lambda_rev;
                Telemetry.incr m_columns)
              assignments;
            Telemetry.incr m_lp_resolves;
            (match Problem.resolve w with
             | Problem.Infeasible | Problem.Unbounded ->
               failwith "Column_gen: master must be feasible and bounded"
             | Problem.Solution s' -> iterate (k + 1) s')
          | `Converged certified ->
            (* Certified convergence: the master optimum is the true
               Equation-6 optimum.  Uncertified: a valid lower bound. *)
            let r = stop s ~iterations:k ~certified in
            (r, if certified then make_sens s r else None)
        end
      in
      iterate 1 s0
  in
  Wsn_telemetry.Span.with_span "colgen.available" run

let available ?max_iterations ?pricer ?shards ?lp_pricing ?stabilize ?pool model ~background
    ~path =
  fst
    (available_sens ?max_iterations ?pricer ?shards ?lp_pricing ?stabilize ?pool model
       ~background ~path)

(* {1 Congestion pricing and what-if queries}

   Read-only views over a certified optimum's duals, plus basis-reuse
   demand-scaling predictions.  Row 1+i of the master covers universe
   link [s_u.(i)] with a Ge constraint whose dual is ≤ 0 in the
   maximisation form: its negation prices one extra Mbps of background
   load on that link in lost available bandwidth. *)

let sensitivity_bandwidth s = s.s_bandwidth

let sigma_price s = s.s_sigma

let link_prices s =
  Array.to_list
    (Array.mapi (fun i l -> (l, Float.max 0.0 (-.s.s_duals.(i)))) s.s_u)

let set_prices s = s.s_set_prices

let check_flow s k =
  if k < 0 || k >= Array.length s.s_background then
    invalid_arg "Column_gen: background flow index out of range"

(* ∂f/∂(demand of flow k): the flow loads every link on its path by its
   demand, so a unit demand increase moves each of those cover rows'
   right-hand sides by one. *)
let flow_derivative s k =
  check_flow s k;
  List.fold_left
    (fun acc l -> acc +. s.s_duals.(Hashtbl.find s.s_uindex l))
    0.0 s.s_background.(k).Flow.path

let throttle_ranking s =
  let gains =
    Array.to_list
      (Array.mapi (fun k (_ : Flow.t) -> (k, -.flow_derivative s k)) s.s_background)
  in
  List.stable_sort (fun (_, a) (_, b) -> compare (b : float) a) gains

(* Demand scaling of flow k as a right-hand-side direction: every cover
   row on its path carries its demand once, so factor [1 + t] shifts
   those rows by [t · demand]. *)
let scale_dir s k =
  let fl = s.s_background.(k) in
  List.map (fun l -> (1 + Hashtbl.find s.s_uindex l, fl.Flow.demand_mbps)) fl.Flow.path

let scale_ranging s k =
  check_flow s k;
  let lo, hi = Problem.rhs_ranging s.s_warm ~dir:(scale_dir s k) in
  (Float.max 0.0 (1.0 +. lo), 1.0 +. hi)

type whatif = { w_mbps : float; w_feasible : bool; w_repivoted : bool }

let whatif_scale s k ~factor =
  check_flow s k;
  if not (Float.is_finite factor) || factor < 0.0 then
    invalid_arg "Column_gen: what-if factor must be finite and non-negative";
  Telemetry.incr m_whatifs;
  let p = Problem.predict_rhs_delta s.s_warm ~dir:(scale_dir s k) ~t:(factor -. 1.0) in
  if p.Problem.repivoted then Telemetry.incr m_whatif_repivots;
  match p.Problem.predicted with
  | Problem.Infeasible -> { w_mbps = 0.0; w_feasible = false; w_repivoted = p.Problem.repivoted }
  | Problem.Unbounded -> failwith "Column_gen: what-if master cannot be unbounded"
  | Problem.Solution sol ->
    let shortfall =
      Array.fold_left (fun acc v -> acc +. sol.Problem.values v) 0.0 s.s_shortfall_vars
    in
    if shortfall > 1e-6 then
      { w_mbps = 0.0; w_feasible = false; w_repivoted = p.Problem.repivoted }
    else
      {
        w_mbps = Float.max 0.0 (sol.Problem.values s.s_f_var);
        w_feasible = true;
        w_repivoted = p.Problem.repivoted;
      }
