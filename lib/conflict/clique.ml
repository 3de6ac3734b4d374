module Rate = Wsn_radio.Rate

type couple = int * Rate.t

let pairwise_interferes model a b = Model.interferes model a b

let is_clique model couples =
  let distinct_links =
    let links = List.map fst couples in
    List.length (List.sort_uniq compare links) = List.length links
  in
  distinct_links
  &&
  let rec pairs = function
    | [] -> true
    | a :: rest -> List.for_all (fun b -> pairwise_interferes model a b) rest && pairs rest
  in
  pairs couples

let candidate_couples model ~universe =
  List.concat_map
    (fun l -> List.map (fun r -> (l, r)) (Model.alone_rates model l))
    (List.sort_uniq compare universe)

let is_maximal_clique model ~universe couples =
  is_clique model couples
  &&
  let members = List.map fst couples in
  List.for_all
    (fun ((l, _) as cand) ->
      List.mem l members
      || not (List.for_all (fun c -> pairwise_interferes model cand c) couples))
    (candidate_couples model ~universe)

(* Symmetric adjacency as one bitset per vertex, built with a single
   pairwise-interference pass over the upper triangle.  The walk itself
   then never touches the model again. *)
let adjacency_bitsets n adjacent =
  let adj = Array.init n (fun _ -> Bitset.create n) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if adjacent i j then begin
        Bitset.add adj.(i) j;
        Bitset.add adj.(j) i
      end
    done
  done;
  adj

(* Bron–Kerbosch with pivoting over precomputed per-vertex adjacency
   bitsets on vertices [0 .. n-1].  [emit] receives each maximal clique
   once.  Candidate sets stay sorted lists, so recursion order, pivot
   tie-breaking and emission order are exactly those of the predicate
   version; only adjacency tests (O(1)) and pivot degree counts
   (O(words) intersections) changed representation. *)
let bron_kerbosch ~n ~adj ~emit =
  let rec bk r p x =
    match (p, x) with
    | [], [] -> emit (List.rev r)
    | _ ->
      let pbs = Bitset.of_list n p in
      let pivot =
        List.fold_left
          (fun (bv, bc) v ->
            let c = Bitset.inter_popcount adj.(v) pbs in
            if c > bc then (v, c) else (bv, bc))
          (-1, -1) (p @ x)
        |> fst
      in
      let expand = List.filter (fun v -> not (Bitset.mem adj.(pivot) v)) p in
      let rec loop p x = function
        | [] -> ()
        | v :: rest ->
          let keep u = Bitset.mem adj.(v) u in
          bk (v :: r) (List.filter keep p) (List.filter keep x);
          loop (List.filter (fun u -> u <> v) p) (v :: x) rest
      in
      loop p x expand
  in
  bk [] (List.init n Fun.id) []

let maximal_cliques_at model ~links ~rate_of =
  let links = List.sort_uniq compare links in
  let arr = Array.of_list links in
  let n = Array.length arr in
  let adj =
    adjacency_bitsets n (fun i j ->
        pairwise_interferes model (arr.(i), rate_of arr.(i)) (arr.(j), rate_of arr.(j)))
  in
  let acc = ref [] in
  bron_kerbosch ~n ~adj ~emit:(fun vs -> acc := List.sort compare (List.map (fun i -> arr.(i)) vs) :: !acc);
  List.rev !acc

let maximal_rate_coupled_cliques model ~universe =
  let couples = Array.of_list (candidate_couples model ~universe) in
  let n = Array.length couples in
  let adj =
    adjacency_bitsets n (fun i j ->
        let (li, _) = couples.(i) and (lj, _) = couples.(j) in
        li <> lj && pairwise_interferes model couples.(i) couples.(j))
  in
  let count = ref 0 in
  let acc = ref [] in
  bron_kerbosch ~n ~adj ~emit:(fun vs ->
      incr count;
      if !count > 100_000 then failwith "Clique.maximal_rate_coupled_cliques: too many cliques";
      acc := List.sort compare (List.map (fun i -> couples.(i)) vs) :: !acc);
  List.rev !acc

let with_maximum_rates model ~universe =
  let maximal = maximal_rate_coupled_cliques model ~universe in
  let is_max_rates clique =
    not
      (List.exists
         (fun ((l, r) as c) ->
           let faster = List.filter (fun r' -> r' < r) (Model.alone_rates model l) in
           List.exists
             (fun r' ->
               let replaced = (l, r') :: List.filter (fun c' -> c' <> c) clique in
               is_maximal_clique model ~universe replaced)
             faster)
         clique)
  in
  List.filter is_max_rates maximal

let local_cliques model ~path_links ~rate_of =
  let arr = Array.of_list path_links in
  let n = Array.length arr in
  let couple i = (arr.(i), rate_of arr.(i)) in
  let interf i j = pairwise_interferes model (couple i) (couple j) in
  (* Largest window [i..j] with all pairs interfering; windows that are
     contained in an earlier window are skipped. *)
  let windows = ref [] in
  let last_end = ref (-1) in
  for i = 0 to n - 1 do
    let j = ref i in
    let extendable k = List.for_all (fun m -> interf m k) (List.init (k - i) (fun d -> i + d)) in
    while !j + 1 < n && extendable (!j + 1) do
      incr j
    done;
    if !j > !last_end then begin
      windows := List.init (!j - i + 1) (fun d -> i + d) :: !windows;
      last_end := !j
    end
  done;
  List.rev !windows
