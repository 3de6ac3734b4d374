module Model = Wsn_conflict.Model
module Independent = Wsn_conflict.Independent

(* A set is inclusion-maximal iff no one-link extension is independent;
   by anti-monotonicity every independent one-link extension is itself
   in the enumeration, so membership hashing replaces a pairwise
   O(sets² · n) subset filter. *)
let of_universe ?max_sets model ~universe =
  let sets = Independent.enumerate_sets ?max_sets model ~universe in
  let live =
    List.filter (fun l -> Model.alone_best model l <> None) (List.sort_uniq compare universe)
  in
  let key links = String.concat "," (List.map string_of_int links) in
  let enumerated = Hashtbl.create (2 * List.length sets) in
  List.iter (fun s -> Hashtbl.replace enumerated (key s) ()) sets;
  let rec insert l = function
    | [] -> [ l ]
    | x :: _ as rest when l < x -> l :: rest
    | x :: rest -> x :: insert l rest
  in
  List.filter
    (fun s ->
      not
        (List.exists
           (fun l -> (not (List.mem l s)) && Hashtbl.mem enumerated (key (insert l s)))
           live))
    sets
