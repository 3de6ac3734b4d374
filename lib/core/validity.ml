module Model = Wsn_conflict.Model
module Clique = Wsn_conflict.Clique
module Rate = Wsn_radio.Rate

type report = {
  rate_of : int -> Rate.t;
  max_clique_time : float;
  worst_clique : int list;
}

(* Clique time share [T_C] of every maximal clique of [universe] under
   the fixed rates. *)
let clique_times model ~universe ~throughput ~rate_of =
  let tbl = Model.rates model in
  let cliques = Clique.maximal_cliques_at model ~links:universe ~rate_of in
  List.map
    (fun clique ->
      let t =
        List.fold_left (fun acc l -> acc +. (throughput l /. Rate.mbps tbl (rate_of l))) 0.0 clique
      in
      (clique, t))
    cliques

let max_clique_time model ~universe ~throughput ~rate_of =
  if universe = [] then invalid_arg "Validity.max_clique_time: empty universe";
  let times = clique_times model ~universe ~throughput ~rate_of in
  let worst_clique, max_clique_time =
    List.fold_left
      (fun ((_, bt) as best) ((_, t) as cur) -> if t > bt then cur else best)
      ([], neg_infinity) times
  in
  { rate_of; max_clique_time; worst_clique }

let hypothesis_min_max_time model ~universe ~throughput =
  if universe = [] then invalid_arg "Validity.hypothesis_min_max_time: empty universe";
  let options = List.map (fun l -> (l, Model.alone_rates model l)) universe in
  if List.exists (fun (_, rs) -> rs = []) options then
    invalid_arg "Validity.hypothesis_min_max_time: dead link in universe";
  let total = List.fold_left (fun acc (_, rs) -> acc * List.length rs) 1 options in
  if total > 100_000 then failwith "Validity.hypothesis_min_max_time: too many rate vectors";
  let rec expand = function
    | [] -> [ [] ]
    | (l, rs) :: rest ->
      let tails = expand rest in
      List.concat_map (fun r -> List.map (fun tail -> (l, r) :: tail) tails) rs
  in
  let vectors = expand options in
  let reports =
    List.map
      (fun vector ->
        let rate_of l = List.assoc l vector in
        max_clique_time model ~universe ~throughput ~rate_of)
      vectors
  in
  List.fold_left
    (fun best cur -> if cur.max_clique_time < best.max_clique_time then cur else best)
    (List.hd reports) (List.tl reports)
