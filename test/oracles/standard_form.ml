module Tableau = Wsn_lp.Tableau
module Types = Wsn_lp.Types

type t = {
  a : float array array;
  b : float array;
  c : float array;
  senses : Types.sense array;
}

let of_canonical ~a ~b ~c ~senses =
  let m = Array.length a in
  if Array.length b <> m then invalid_arg "Standard_form.of_canonical: b shape";
  if List.length senses <> m then invalid_arg "Standard_form.of_canonical: senses shape";
  Array.iter
    (fun row ->
      if Array.length row <> Array.length c then invalid_arg "Standard_form.of_canonical: row shape")
    a;
  { a = Array.map Array.copy a; b = Array.copy b; c = Array.copy c; senses = Array.of_list senses }

let solve t = Tableau.solve ~a:t.a ~b:t.b ~c:t.c ~senses:t.senses

(* Normalise every row to <= by flipping >= rows, then take the
   textbook dual: max c.x, Ax <= b, x >= 0  <->  min b.y, A'y >= c,
   y >= 0, expressed as a maximisation of -b.y. *)
let dual t =
  Array.iter
    (function
      | Types.Eq -> invalid_arg "Standard_form.dual: Eq rows need free duals"
      | Types.Le | Types.Ge -> ())
    t.senses;
  let m = Array.length t.a and n = Array.length t.c in
  let sign i = match t.senses.(i) with Types.Ge -> -1.0 | Types.Le | Types.Eq -> 1.0 in
  let b_le = Array.mapi (fun i bi -> sign i *. bi) t.b in
  {
    a = Array.init n (fun j -> Array.init m (fun i -> sign i *. t.a.(i).(j)));
    b = Array.copy t.c;
    c = Array.map Float.neg b_le;
    senses = Array.make n Types.Ge;
  }

let duality_gap t =
  match (solve t, solve (dual t)) with
  | Tableau.Optimal p, Tableau.Optimal d ->
    (* dual objective was negated to stay a maximisation *)
    Some (Float.abs (p.objective +. d.objective))
  | _ -> None
