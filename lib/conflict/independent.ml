module Rate = Wsn_radio.Rate
module Telemetry = Wsn_telemetry.Registry
module Pool = Wsn_parallel.Pool

type column = { links : int list; rates : Rate.t list; mbps : float array }

let m_enumerations = Telemetry.counter "independent.enumerations"

let m_sets = Telemetry.counter "independent.sets"

let m_memo_hits = Telemetry.counter "independent.memo_hits"

let default_max_sets = 200_000

let too_many () = failwith "Independent.enumerate_sets: too many independent sets"

let live_links model universe =
  List.filter (fun l -> Model.alone_best model l <> None) (List.sort_uniq compare universe)

(* --- per-kernel memo of whole enumerations --------------------------
   The admission and path-bandwidth layers query the same universes over
   and over (same path under several metrics, growing backgrounds over a
   shared core); enumeration results are pure functions of the kernel
   and the universe, so a kernel-backed model memoises them wholesale in
   {!Kernel.scratch}.  Entries also record the enumerated-set count so a
   later call with a tighter [max_sets] replays the explosion guard
   exactly as a fresh run would. *)

exception Enum_memo of (string, int * int list list) Hashtbl.t

exception Columns_memo of (string, int * column list) Hashtbl.t

let univ_key universe = String.concat "," (List.map string_of_int universe)

let enum_memo k =
  match Hashtbl.find_opt (Kernel.scratch k) "independent.sets" with
  | Some (Enum_memo h) -> h
  | _ ->
    let h = Hashtbl.create 16 in
    Hashtbl.replace (Kernel.scratch k) "independent.sets" (Enum_memo h);
    h

let columns_memo k =
  match Hashtbl.find_opt (Kernel.scratch k) "independent.columns" with
  | Some (Columns_memo h) -> h
  | _ ->
    let h = Hashtbl.create 16 in
    Hashtbl.replace (Kernel.scratch k) "independent.columns" (Columns_memo h);
    h

(* Memo lookup: [n_sets] is the stored enumeration size; replaying the
   guard keeps memoised behaviour indistinguishable from a fresh run. *)
let memo_find memo key ~max_sets =
  match Hashtbl.find_opt memo key with
  | Some (n_sets, v) ->
    if n_sets > max_sets then too_many ();
    Telemetry.incr m_memo_hits;
    Some v
  | None -> None

(* Enumerate independent sets by ordered extension: independence is
   anti-monotone, so any independent set is reached by adding links in
   ascending order through independent prefixes only.  Partial sets are
   kept reversed (constant-time extension) and reversed once per
   emission.  With a kernel-backed model the extension test is
   incremental — O(|set|) threshold checks against the running state
   instead of re-validating the whole candidate set. *)

(* Kernel-path DFS below a fixed prefix held in [st].  [emit] receives
   each independent extension in DFS (ascending, depth-first) order. *)
let rec kernel_extend st emit rev_set candidates =
  match candidates with
  | [] -> ()
  | l :: rest ->
    (if Kernel.Inc.add_sorted st l then begin
       let rev_candidate = l :: rev_set in
       emit (List.rev rev_candidate);
       kernel_extend st emit rev_candidate rest;
       Kernel.Inc.undo st
     end);
    kernel_extend st emit rev_set rest

(* Parallel enumeration: every independent set is reached through
   exactly one root — its minimum link — so the DFS forest splits into
   one subtree per live link, and concatenating the subtree emissions
   in root order reproduces the sequential emission order exactly.
   Each subtree runs on a worker-local kernel view (the shared memo
   table is not domain-safe); the views' memo pools are folded back
   into the parent afterwards.  The explosion guard is replayed
   faithfully: a single subtree over [max_sets] trips it in the worker,
   and the coordinator re-checks the grand total after the join. *)
let enumerate_kernel_parallel ~max_sets pool k live =
  let rec rooted = function [] -> [] | l :: rest -> (l, rest) :: rooted rest in
  let subtrees =
    Pool.map pool
      (fun (root, rest) ->
        let kv = Kernel.fork k in
        let st = Kernel.Inc.start kv in
        let count = ref 0 in
        let results = ref [] in
        let emit set =
          incr count;
          if !count > max_sets then too_many ();
          results := set :: !results
        in
        if Kernel.Inc.add_sorted st root then begin
          emit [ root ];
          kernel_extend st emit [ root ] rest
        end;
        (kv, !count, List.rev !results))
      (Array.of_list (rooted live))
  in
  Array.iter (fun (kv, _, _) -> Kernel.merge ~into:k kv) subtrees;
  let total = Array.fold_left (fun acc (_, c, _) -> acc + c) 0 subtrees in
  if total > max_sets then too_many ();
  Telemetry.add m_sets total;
  List.concat_map (fun (_, _, sets) -> sets) (Array.to_list subtrees)

let enumerate_fresh ~max_sets model ~universe =
  let live = live_links model universe in
  let pool = Pool.global () in
  match Model.kernel model with
  | Some k when Pool.size pool > 1 && List.length live >= 2 ->
    enumerate_kernel_parallel ~max_sets pool k live
  | kernel ->
    let count = ref 0 in
    let results = ref [] in
    let emit set =
      incr count;
      if !count > max_sets then too_many ();
      results := set :: !results
    in
    (match kernel with
     | Some k ->
       let st = Kernel.Inc.start k in
       kernel_extend st emit [] live
     | None ->
       let rec extend rev_set candidates =
         match candidates with
         | [] -> ()
         | l :: rest ->
           (let candidate = List.rev (l :: rev_set) in
            if Model.independent model candidate then begin
              emit candidate;
              extend (l :: rev_set) rest
            end);
           extend rev_set rest
       in
       extend [] live);
    Telemetry.add m_sets !count;
    List.rev !results

let enumerate_sets ?(max_sets = default_max_sets) model ~universe =
  Telemetry.incr m_enumerations;
  match Model.kernel model with
  | None -> enumerate_fresh ~max_sets model ~universe
  | Some k ->
    let memo = enum_memo k in
    let key = univ_key (List.sort_uniq compare universe) in
    (match memo_find memo key ~max_sets with
     | Some sets -> sets
     | None ->
       let sets = enumerate_fresh ~max_sets model ~universe in
       Hashtbl.replace memo key (List.length sets, sets);
       sets)

let feasible_assignments model set =
  let set = List.sort_uniq compare set in
  let rec extend acc = function
    | [] -> [ List.rev acc ]
    | l :: rest ->
      List.concat_map
        (fun r ->
          let acc' = (l, r) :: acc in
          if Model.feasible model (List.rev acc') then extend acc' rest else [])
        (Model.alone_rates model l)
  in
  match set with [] -> [] | _ -> extend [] set

(* Rate indices: smaller is faster.  [a] dominates [b] when every rate
   of [a] is at least as fast and one is strictly faster. *)
let dominates_rates a b =
  List.for_all2 (fun ra rb -> ra <= rb) a b && List.exists2 (fun ra rb -> ra < rb) a b

let pareto_vectors model set =
  let set = List.sort_uniq compare set in
  match Model.max_vector model set with
  | None -> []
  | Some v when Model.has_unique_max model -> [ Array.to_list v ]
  | Some _ ->
    let assignments = feasible_assignments model set in
    let vectors = List.map (List.map snd) assignments in
    let vectors = List.sort_uniq compare vectors in
    List.filter (fun v -> not (List.exists (fun u -> dominates_rates u v) vectors)) vectors

(* Hashtbl key for an mbps vector.  Canonical bytes, not a float list:
   [x +. 0.0] maps -0.0 to +0.0 before taking the IEEE bit pattern, so
   the two zeros can neither alias distinct vectors nor split equal
   ones the way polymorphic hashing of raw floats could. *)
let mbps_key mbps =
  let b = Buffer.create (8 * Array.length mbps) in
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float (x +. 0.0))) mbps;
  Buffer.contents b

let columns_fresh ?max_sets ~filter_dominated model ~universe =
  let index = Hashtbl.create 16 in
  List.iteri (fun i l -> Hashtbl.replace index l i) universe;
  let n = List.length universe in
  let tbl = Model.rates model in
  let sets = enumerate_sets ?max_sets model ~universe in
  let raw =
    List.concat_map
      (fun set ->
        List.map
          (fun rates ->
            let mbps = Array.make n 0.0 in
            List.iter2 (fun l r -> mbps.(Hashtbl.find index l) <- Rate.mbps tbl r) set rates;
            { links = set; rates; mbps })
          (pareto_vectors model set))
      sets
  in
  (* Dedup exact duplicates, then filter strictly dominated vectors. *)
  let raw =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun c ->
        let key = mbps_key c.mbps in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      raw
  in
  let dominated c =
    let n = Array.length c.mbps in
    (* Early exits: most candidate pairs fail the ≥ sweep within a
       component or two, so bail at the first violation instead of
       finishing the scan (same verdict as the full sweep). *)
    let rec ge other i = i >= n || (other.mbps.(i) >= c.mbps.(i) -. 1e-12 && ge other (i + 1)) in
    let rec gt other i = i < n && (other.mbps.(i) > c.mbps.(i) +. 1e-12 || gt other (i + 1)) in
    List.exists (fun other -> other != c && ge other 0 && gt other 0) raw
  in
  (List.length sets, if filter_dominated then List.filter (fun c -> not (dominated c)) raw else raw)

let columns ?max_sets ?(filter_dominated = true) model ~universe =
  Wsn_telemetry.Span.with_span "independent.columns" @@ fun () ->
  let universe = List.sort_uniq compare universe in
  match Model.kernel model with
  | None -> snd (columns_fresh ?max_sets ~filter_dominated model ~universe)
  | Some k ->
    let memo = columns_memo k in
    let key = (if filter_dominated then "d|" else "a|") ^ univ_key universe in
    (match memo_find memo key ~max_sets:(Option.value max_sets ~default:default_max_sets) with
     | Some cols -> cols
     | None ->
       let n_sets, cols = columns_fresh ?max_sets ~filter_dominated model ~universe in
       Hashtbl.replace memo key (n_sets, cols);
       cols)
