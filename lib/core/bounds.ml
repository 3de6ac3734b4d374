module Model = Wsn_conflict.Model
module Independent = Wsn_conflict.Independent
module Clique = Wsn_conflict.Clique
module Rate = Wsn_radio.Rate
module Problem = Wsn_lp.Problem
module Types = Wsn_lp.Types

let fixed_rate_clique_bound model ~path ~rate_of =
  let tbl = Model.rates model in
  let cliques = Clique.maximal_cliques_at model ~links:path ~rate_of in
  List.fold_left
    (fun acc clique ->
      let time_per_unit =
        List.fold_left (fun t l -> t +. (1.0 /. Rate.mbps tbl (rate_of l))) 0.0 clique
      in
      Float.min acc (1.0 /. time_per_unit))
    infinity cliques

(* A valid upper bound at any scale (unlike Eq. 7, which rate
   adaptation can beat, and Eq. 9, which enumerates Z^L rate vectors):
   restrict attention to links that conflict pairwise at {e every}
   rate pair ({!Model.hard_conflict}; for SINR models, at their most
   robust, slowest supported rates) — at any instant at most one link
   of such a clique transmits, making airtimes disjoint.
   A link carrying traffic x transmits at most at its best alone rate,
   so it needs airtime >= x / best, and every hard-conflict clique C
   yields sum_{l in C} (load_l + f·[l on path]) / best_l <= 1. *)
let clique_upper model ~background ~path =
  if path = [] then invalid_arg "Bounds.clique_upper: empty path";
  let tbl = Model.rates model in
  let universe = List.sort_uniq compare (Flow.union_links background @ path) in
  let alone l = Model.alone_rates model l in
  if List.exists (fun l -> alone l = []) path then 0.0
  else begin
    let u = Array.of_list (List.filter (fun l -> alone l <> []) universe) in
    let n = Array.length u in
    let best = Array.map (fun l -> Rate.mbps tbl (List.hd (alone l))) u in
    let load = Array.map (fun l -> Flow.load_on background l) u in
    let onpath = Array.map (fun l -> List.mem l path) u in
    let conflict i j = Model.hard_conflict model u.(i) u.(j) in
    let bound = ref infinity in
    Array.iteri
      (fun p _ ->
        if onpath.(p) then begin
          (* Greedy maximal hard-conflict clique around path link p. *)
          let members = ref [ p ] in
          for i = 0 to n - 1 do
            if i <> p && List.for_all (conflict i) !members then members := i :: !members
          done;
          let slack = ref 1.0 and denom = ref 0.0 in
          List.iter
            (fun m ->
              slack := !slack -. (load.(m) /. best.(m));
              if onpath.(m) then denom := !denom +. (1.0 /. best.(m)))
            !members;
          (* denom >= 1/best_p > 0: the clique contains p itself. *)
          bound := Float.min !bound (!slack /. !denom)
        end)
      u;
    Float.max 0.0 !bound
  end

(* Cartesian product of per-link rate options, with an explosion guard. *)
let rate_vectors model ~universe =
  let options = List.map (fun l -> (l, Model.alone_rates model l)) universe in
  if List.exists (fun (_, rs) -> rs = []) options then None
  else begin
    let total =
      List.fold_left (fun acc (_, rs) -> acc * List.length rs) 1 options
    in
    if total > 100_000 then failwith "Bounds.upper_eq9: too many rate vectors";
    let rec expand = function
      | [] -> [ [] ]
      | (l, rs) :: rest ->
        let tails = expand rest in
        List.concat_map (fun r -> List.map (fun tail -> (l, r) :: tail) tails) rs
    in
    Some (expand options)
  end

let upper_eq9 model ~background ~path =
  let universe = List.sort_uniq compare (Flow.union_links background @ path) in
  let tbl = Model.rates model in
  match rate_vectors model ~universe with
  | None -> None (* a demanded link supports no rate *)
  | Some vectors ->
    let lp = Problem.create Types.Maximize in
    let f = Problem.add_var ~obj:1.0 lp in
    let gammas_and_h =
      List.map
        (fun vector ->
          let gamma = Problem.add_var lp in
          let rate_of l = List.assoc l vector in
          let h = List.map (fun l -> (l, Problem.add_var lp)) universe in
          (* Per-link cap: h_ik <= gamma_i * r_ik. *)
          List.iter
            (fun (l, hv) ->
              Problem.add_constraint lp
                [ (hv, 1.0); (gamma, -.Rate.mbps tbl (rate_of l)) ]
                Types.Le 0.0)
            h;
          (* All maximal clique constraints of this rate vector. *)
          let cliques = Clique.maximal_cliques_at model ~links:universe ~rate_of in
          List.iter
            (fun clique ->
              let terms =
                List.map (fun l -> (List.assoc l h, 1.0 /. Rate.mbps tbl (rate_of l))) clique
              in
              Problem.add_constraint lp ((gamma, -1.0) :: terms) Types.Le 0.0)
            cliques;
          (gamma, h))
        vectors
    in
    Problem.add_constraint lp (List.map (fun (g, _) -> (g, 1.0)) gammas_and_h) Types.Le 1.0;
    List.iter
      (fun l ->
        let supply = List.map (fun (_, h) -> (List.assoc l h, 1.0)) gammas_and_h in
        let demand = Flow.load_on background l in
        let f_term = if List.mem l path then [ (f, -1.0) ] else [] in
        Problem.add_constraint lp (supply @ f_term) Types.Ge demand)
      universe;
    (match Problem.solve lp with
     | Problem.Infeasible -> None
     | Problem.Unbounded -> failwith "Bounds.upper_eq9: LP unbounded (model bug)"
     | Problem.Solution s -> Some s.Problem.objective)

let lower_bound_restricted ~keep model ~background ~path =
  let universe = List.sort_uniq compare (Flow.union_links background @ path) in
  let columns =
    List.filter keep (Independent.columns ~filter_dominated:false model ~universe)
  in
  match columns with
  | [] -> None
  | _ ->
    let index = Hashtbl.create 16 in
    List.iteri (fun i l -> Hashtbl.replace index l i) universe;
    let lp = Problem.create Types.Maximize in
    let f = Problem.add_var ~obj:1.0 lp in
    let lambda = List.map (fun (_ : Independent.column) -> Problem.add_var lp) columns in
    Problem.add_constraint lp (List.map (fun v -> (v, 1.0)) lambda) Types.Le 1.0;
    List.iter
      (fun l ->
        let i = Hashtbl.find index l in
        let supply = List.map2 (fun v (c : Independent.column) -> (v, c.mbps.(i))) lambda columns in
        let f_term = if List.mem l path then [ (f, -1.0) ] else [] in
        Problem.add_constraint lp (supply @ f_term) Types.Ge (Flow.load_on background l))
      universe;
    (match Problem.solve lp with
     | Problem.Infeasible -> None
     | Problem.Unbounded -> failwith "Bounds.lower_bound_restricted: LP unbounded"
     | Problem.Solution s -> Some s.Problem.objective)

let singleton_lower_bound model ~background ~path =
  lower_bound_restricted
    ~keep:(fun c -> List.length c.Independent.links = 1)
    model ~background ~path
