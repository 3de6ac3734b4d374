module Rate = Wsn_radio.Rate
module Model = Wsn_conflict.Model

type slot = { links : int list; rates : Rate.t list; share : float }

type t = { slots : slot list }

let validate_slot s =
  if s.share < 0.0 then invalid_arg "Schedule.make: negative share";
  if List.length s.links <> List.length s.rates then
    invalid_arg "Schedule.make: links and rates misaligned";
  if List.length (List.sort_uniq compare s.links) <> List.length s.links then
    invalid_arg "Schedule.make: repeated link in slot"

let make slots =
  List.iter validate_slot slots;
  { slots = List.filter (fun s -> s.share > 0.0) slots }

let slots t = t.slots

let empty = { slots = [] }

let total_share t = List.fold_left (fun acc s -> acc +. s.share) 0.0 t.slots

let throughput tbl t l =
  List.fold_left
    (fun acc s ->
      let rec lookup links rates =
        match (links, rates) with
        | [], [] -> 0.0
        | l' :: ls, r :: rs -> if l' = l then Rate.mbps tbl r else lookup ls rs
        | _ -> assert false
      in
      acc +. (s.share *. lookup s.links s.rates))
    0.0 t.slots

let link_ids t = List.sort_uniq compare (List.concat_map (fun s -> s.links) t.slots)

let is_feasible model t =
  total_share t <= 1.0 +. 1e-9
  && List.for_all (fun s -> Model.feasible model (List.combine s.links s.rates)) t.slots

let meets_demands tbl t demands =
  List.for_all (fun (l, d) -> throughput tbl t l >= d -. 1e-6) demands

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun s ->
      Format.fprintf fmt "lambda=%.4f {" s.share;
      List.iteri
        (fun i (l, r) ->
          if i > 0 then Format.fprintf fmt ", ";
          Format.fprintf fmt "L%d@@r%d" l r)
        (List.combine s.links s.rates);
      Format.fprintf fmt "}@,")
    t.slots;
  Format.fprintf fmt "@]"
