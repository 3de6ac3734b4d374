module Rate = Wsn_radio.Rate
module Telemetry = Wsn_telemetry.Registry

let m_feasibility = Telemetry.counter "conflict.feasibility_checks"

type assignment = (int * Rate.t) list

type t = {
  n_links : int;
  rates : Rate.table;
  alone_rates : int -> Rate.t list;
  feasible_raw : assignment -> bool;
  fast_max_vector : (int list -> Rate.t array option) option;
  kernel : Kernel.t option;
}

let create ~n_links ~rates ~alone_rates ~feasible ?max_vector () =
  {
    n_links;
    rates;
    alone_rates;
    feasible_raw = feasible;
    fast_max_vector = max_vector;
    kernel = None;
  }

let kernel t = t.kernel

let n_links t = t.n_links

let rates t = t.rates

let alone_rates t l =
  if l < 0 || l >= t.n_links then invalid_arg "Model.alone_rates: link out of range";
  t.alone_rates l

let alone_best t l = match alone_rates t l with [] -> None | r :: _ -> Some r

let validate t assignment =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (l, r) ->
      if l < 0 || l >= t.n_links then invalid_arg "Model.feasible: link out of range";
      if r < 0 || r >= Rate.n_rates t.rates then invalid_arg "Model.feasible: rate out of range";
      if Hashtbl.mem seen l then invalid_arg "Model.feasible: repeated link";
      Hashtbl.add seen l ())
    assignment

let feasible t assignment =
  validate t assignment;
  Telemetry.incr m_feasibility;
  t.feasible_raw assignment

let interferes t ((l1, _) as a) ((l2, _) as b) =
  if l1 = l2 then true else not (feasible t [ a; b ])

(* A kernel answers from the two slowest alone rates, because SINR
   feasibility is monotone in rate.  A declared predicate need not be,
   so without a kernel every pair of alone rates is tested. *)
let hard_conflict t i j =
  match t.kernel with
  | Some k -> Kernel.hard_conflict k i j
  | None ->
    List.for_all
      (fun ri -> List.for_all (fun rj -> interferes t (i, ri) (j, rj)) (alone_rates t j))
      (alone_rates t i)

(* Backtracking extension of a partial assignment [acc] (reversed) over
   the remaining links; relies on anti-monotonicity of feasibility for
   pruning.  Returns a completed assignment in traversal order. *)
let rec extend_from t acc = function
  | [] -> Some (List.rev acc)
  | l :: rest ->
    let rec try_rates = function
      | [] -> None
      | r :: more ->
        let acc' = (l, r) :: acc in
        if t.feasible_raw acc' then (
          match extend_from t acc' rest with
          | Some a -> Some a
          | None -> try_rates more)
        else try_rates more
    in
    try_rates (t.alone_rates l)

let find_assignment t set = extend_from t [] set

let independent t set =
  Telemetry.incr m_feasibility;
  match t.fast_max_vector with
  | Some f -> f set <> None
  | None -> find_assignment t set <> None

let max_vector t set =
  match t.fast_max_vector with
  | Some f -> f set
  | None ->
    (* Greedy witness: give each link in turn the fastest rate that
       leaves the remaining links extendable.  Pareto-maximal, but not
       necessarily the unique maximum (none may exist in declared
       models); complete enumeration lives in {!Independent}. *)
    let rec greedy acc = function
      | [] -> Some (Array.of_list (List.rev_map snd acc))
      | l :: rest ->
        let rec best = function
          | [] -> None
          | r :: more ->
            let acc' = (l, r) :: acc in
            if t.feasible_raw acc' && extend_from t acc' rest <> None then Some r else best more
        in
        (match best (t.alone_rates l) with
         | Some r -> greedy ((l, r) :: acc) rest
         | None -> None)
    in
    greedy [] set

(* --- Physical (SINR) model over a topology ------------------------- *)

let physical topo =
  let k = Kernel.create topo in
  {
    n_links = Kernel.n_links k;
    rates = Kernel.rates k;
    alone_rates = Kernel.alone_rates k;
    feasible_raw = (fun assignment -> Kernel.feasible k assignment);
    fast_max_vector = Some (fun set -> Kernel.max_vector k set);
    kernel = Some k;
  }

(* --- Declared pairwise model --------------------------------------- *)

let declared ~n_links ~rates ~alone_rates ~interferes =
  let alone_ok l r = List.mem r (alone_rates l) in
  let feasible assignment =
    List.for_all (fun (l, r) -> alone_ok l r) assignment
    &&
    let rec pairs = function
      | [] -> true
      | a :: rest -> List.for_all (fun b -> not (interferes a b)) rest && pairs rest
    in
    pairs assignment
  in
  create ~n_links ~rates ~alone_rates ~feasible ()

let fork_view t =
  match t.kernel with
  | None -> t
  | Some k ->
    let k' = Kernel.fork k in
    {
      n_links = Kernel.n_links k';
      rates = Kernel.rates k';
      alone_rates = Kernel.alone_rates k';
      feasible_raw = (fun assignment -> Kernel.feasible k' assignment);
      fast_max_vector = Some (fun set -> Kernel.max_vector k' set);
      kernel = Some k';
    }

let has_unique_max t = t.fast_max_vector <> None

let pairwise_approximation t =
  declared ~n_links:t.n_links ~rates:t.rates ~alone_rates:t.alone_rates
    ~interferes:(fun a b -> interferes t a b)
