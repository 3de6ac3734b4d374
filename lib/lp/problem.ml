type var = int

type constr = { terms : (var * float) list; sense : Types.sense; rhs : float }

type t = {
  objective : Types.objective;
  mutable objs : float list;  (* objective coefficient per variable, reversed *)
  mutable nvars : int;
  mutable constrs : constr list;  (* reversed *)
}

let create objective = { objective; objs = []; nvars = 0; constrs = [] }

let add_var ?(obj = 0.0) t =
  let v = t.nvars in
  t.objs <- obj :: t.objs;
  t.nvars <- v + 1;
  v

let add_constraint t terms sense rhs =
  List.iter
    (fun (v, _) ->
      if v < 0 || v >= t.nvars then invalid_arg "Problem.add_constraint: unknown variable")
    terms;
  t.constrs <- { terms; sense; rhs } :: t.constrs

type solution = { objective : float; values : var -> float; row_duals : float array }

type outcome =
  | Solution of solution
  | Unbounded
  | Infeasible

(* Dense standard form shared by the one-shot and warm solvers: variable
   [v] is column [v], rows accumulate their terms in order, and the
   objective is internally always a maximisation.  [0.0 +.] maps a
   [-0.] cost (a zero coefficient under [Minimize]) to [+0.]. *)
let build (t : t) =
  let flip = match t.objective with Types.Maximize -> 1.0 | Types.Minimize -> -1.0 in
  let rows = Array.of_list (List.rev t.constrs) in
  let a =
    Array.map
      (fun c ->
        let row = Array.make t.nvars 0.0 in
        List.iter (fun (v, coeff) -> row.(v) <- row.(v) +. coeff) c.terms;
        row)
      rows
  in
  let b = Array.map (fun c -> c.rhs) rows in
  let senses = Array.map (fun c -> c.sense) rows in
  let c = Array.of_list (List.rev_map (fun obj -> 0.0 +. (flip *. obj)) t.objs) in
  (a, b, c, senses, flip)

(* A handle is an index into the tableau's [x] (declared variables,
   then appended columns); [+. 0.0] turns a [-0.] value or objective
   into [+0.] before it reaches a caller. *)
let outcome_of_result ~flip = function
  | Tableau.Unbounded -> Unbounded
  | Tableau.Infeasible -> Infeasible
  | Tableau.Optimal { x; objective; duals } ->
    let values v =
      if v < 0 || v >= Array.length x then invalid_arg "Problem: unknown variable";
      x.(v) +. 0.0
    in
    Solution { objective = (flip *. objective) +. 0.0; values; row_duals = duals }

let solve t =
  let a, b, c, senses, flip = build t in
  outcome_of_result ~flip (Tableau.solve ~a ~b ~c ~senses)

type warm = { wstate : Tableau.state; wflip : float }

let solve_warm t =
  let a, b, c, senses, flip = build t in
  let result, state = Tableau.solve_open ~a ~b ~c ~senses () in
  (outcome_of_result ~flip result, Option.map (fun wstate -> { wstate; wflip = flip }) state)

let add_column w ?(obj = 0.0) terms =
  Tableau.add_column w.wstate ~coeffs:terms ~cost:(w.wflip *. obj)

let resolve w = outcome_of_result ~flip:w.wflip (Tableau.reoptimize w.wstate)

(* Sensitivity wrappers.  The tableau applies its stored row flips
   itself, so right-hand-side directions pass through in caller sign. *)

type prediction = { predicted : outcome; repivoted : bool }

let warm_duals w = Tableau.dual_values w.wstate

let warm_reduced_cost w v = Tableau.reduced_cost_of w.wstate v

let rhs_ranging w ~dir = Tableau.rhs_ranging w.wstate ~dir

let predict_rhs_delta w ~dir ~t =
  let r, repivoted = Tableau.predict_rhs w.wstate ~dir ~t in
  { predicted = outcome_of_result ~flip:w.wflip r; repivoted }

let objective_exn = function
  | Solution s -> s.objective
  | Unbounded -> failwith "Problem.objective_exn: unbounded"
  | Infeasible -> failwith "Problem.objective_exn: infeasible"
