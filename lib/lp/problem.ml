module Matrix = Wsn_linalg.Matrix
module Vector = Wsn_linalg.Vector

type var = int

type var_decl = { vname : string; lower : float; upper : float option; obj : float }

type constr = { cname : string; terms : (var * float) list; sense : Types.sense; rhs : float }

type t = {
  pname : string;
  objective : Types.objective;
  mutable vars : var_decl list;  (* reversed *)
  mutable nvars : int;
  mutable constrs : constr list;  (* reversed *)
  mutable nconstrs : int;
}

let create ?(name = "lp") objective =
  { pname = name; objective; vars = []; nvars = 0; constrs = []; nconstrs = 0 }

let name t = t.pname

let add_var t ?(lower = 0.0) ?upper ?(obj = 0.0) vname =
  (match upper with
   | Some u when u < lower -> invalid_arg "Problem.add_var: upper < lower"
   | Some _ | None -> ());
  let v = t.nvars in
  t.vars <- { vname; lower; upper; obj } :: t.vars;
  t.nvars <- t.nvars + 1;
  v

let add_constraint t ?name terms sense rhs =
  let cname = match name with Some n -> n | None -> Printf.sprintf "c%d" t.nconstrs in
  List.iter
    (fun (v, _) ->
      if v < 0 || v >= t.nvars then invalid_arg "Problem.add_constraint: unknown variable")
    terms;
  t.constrs <- { cname; terms; sense; rhs } :: t.constrs;
  t.nconstrs <- t.nconstrs + 1

let decls t = Array.of_list (List.rev t.vars)

let constraints t = List.rev t.constrs

let var_name t v =
  let d = decls t in
  if v < 0 || v >= Array.length d then invalid_arg "Problem.var_name: unknown variable";
  d.(v).vname

let n_vars t = t.nvars

let n_constraints t = t.nconstrs

type solution = { objective : float; values : var -> float; row_duals : float array }

type outcome =
  | Solution of solution
  | Unbounded
  | Infeasible

(* Mapping of each declared variable onto standard-form columns
   (non-negative variables):
   - bounded below at [lo]: one column, value [lo + col];
   - free: two columns [pos] and [neg], value [pos - neg]. *)
type encoding =
  | Shifted of { col : int; lo : float }
  | Split of { pos : int; neg : int }

(* Standard-form expansion shared by the one-shot and warm solvers. *)
let build t =
  let dcls = decls t in
  (* Assign standard-form columns. *)
  let next_col = ref 0 in
  let fresh () =
    let c = !next_col in
    incr next_col;
    c
  in
  let enc =
    Array.map
      (fun d ->
        if d.lower = Float.neg_infinity then Split { pos = fresh (); neg = fresh () }
        else Shifted { col = fresh (); lo = d.lower })
      dcls
  in
  let ncols = !next_col in
  (* Expand a (var, coeff) list into standard-form column coefficients,
     returning the constant offset contributed by lower-bound shifts. *)
  let expand terms =
    let row = Vector.zeros ncols in
    let offset = ref 0.0 in
    List.iter
      (fun (v, coeff) ->
        match enc.(v) with
        | Shifted { col; lo } ->
          row.(col) <- row.(col) +. coeff;
          offset := !offset +. (coeff *. lo)
        | Split { pos; neg } ->
          row.(pos) <- row.(pos) +. coeff;
          row.(neg) <- row.(neg) -. coeff)
      terms;
    (row, !offset)
  in
  (* Constraint rows: user constraints plus upper-bound rows. *)
  let upper_rows =
    List.concat
      (List.mapi
         (fun v d ->
           match (d.upper, enc.(v)) with
           | None, _ -> []
           | Some u, Shifted { col; lo } ->
             let row = Vector.zeros ncols in
             row.(col) <- 1.0;
             [ (row, Types.Le, u -. lo) ]
           | Some u, Split { pos; neg } ->
             let row = Vector.zeros ncols in
             row.(pos) <- 1.0;
             row.(neg) <- -1.0;
             [ (row, Types.Le, u) ])
         (Array.to_list dcls))
  in
  let user_rows =
    List.map
      (fun c ->
        let row, offset = expand c.terms in
        (row, c.sense, c.rhs -. offset))
      (constraints t)
  in
  let all_rows = user_rows @ upper_rows in
  let m = List.length all_rows in
  let a = Matrix.zeros m ncols in
  let b = Vector.zeros m in
  let senses = Array.make m Types.Le in
  List.iteri
    (fun i (row, sense, rhs) ->
      for j = 0 to ncols - 1 do
        Matrix.set a i j row.(j)
      done;
      b.(i) <- rhs;
      senses.(i) <- sense)
    all_rows;
  (* Objective in standard columns (internally always a maximisation). *)
  let flip = match t.objective with Types.Maximize -> 1.0 | Types.Minimize -> -1.0 in
  let c = Vector.zeros ncols in
  let const_term = ref 0.0 in
  Array.iteri
    (fun v d ->
      if d.obj <> 0.0 then
        match enc.(v) with
        | Shifted { col; lo } ->
          c.(col) <- c.(col) +. (flip *. d.obj);
          const_term := !const_term +. (d.obj *. lo)
        | Split { pos; neg } ->
          c.(pos) <- c.(pos) +. (flip *. d.obj);
          c.(neg) <- c.(neg) -. (flip *. d.obj))
    dcls;
  (a, b, c, senses, enc, flip, !const_term)

(* A solved problem kept warm for column appends: extra variables are
   handed ids continuing from the declaration count at solve time and
   resolved through the tableau's appended-column x indices. *)
type warm = {
  wstate : Tableau.state;
  wflip : float;
  wconst : float;
  wenc : encoding array;
  wn0 : int;  (* declared variables at solve time *)
  wn_user : int;  (* user constraint rows (tableau rows [0, wn_user)) *)
  mutable wextra : (var * int) list;  (* appended var ↦ x index, reversed *)
}

let outcome_of_result ~n_user ~enc ~flip ~const_term ~extra = function
  | Tableau.Unbounded -> Unbounded
  | Tableau.Infeasible -> Infeasible
  | Tableau.Optimal { x; objective; duals } ->
    let row_duals = Array.init n_user (fun i -> duals.(i)) in
    let value v =
      if v < Array.length enc then
        match enc.(v) with
        | Shifted { col; lo } -> lo +. x.(col)
        | Split { pos; neg } -> x.(pos) -. x.(neg)
      else
        match List.assoc_opt v extra with
        | Some xi -> x.(xi)
        | None -> invalid_arg "Problem: unknown variable"
    in
    let obj = (flip *. objective) +. const_term in
    Solution { objective = obj; values = value; row_duals }

let solve t =
  let a, b, c, senses, enc, flip, const_term = build t in
  outcome_of_result ~n_user:t.nconstrs ~enc ~flip ~const_term ~extra:[]
    (Tableau.solve ~a ~b ~c ~senses)

let solve_warm t =
  let a, b, c, senses, enc, flip, const_term = build t in
  let result, state = Tableau.solve_open ~a ~b ~c ~senses () in
  let outcome = outcome_of_result ~n_user:t.nconstrs ~enc ~flip ~const_term ~extra:[] result in
  let warm =
    Option.map
      (fun st ->
        { wstate = st; wflip = flip; wconst = const_term; wenc = enc; wn0 = t.nvars;
          wn_user = t.nconstrs; wextra = [] })
      state
  in
  (outcome, warm)

let add_column w ?(obj = 0.0) terms =
  List.iter
    (fun (i, _) ->
      if i < 0 || i >= w.wn_user then invalid_arg "Problem.add_column: unknown constraint")
    terms;
  let xi = Tableau.add_column w.wstate ~coeffs:terms ~cost:(w.wflip *. obj) in
  let v = w.wn0 + List.length w.wextra in
  w.wextra <- (v, xi) :: w.wextra;
  v

let warm_n_vars w = w.wn0 + List.length w.wextra

let resolve w =
  outcome_of_result ~n_user:w.wn_user ~enc:w.wenc ~flip:w.wflip ~const_term:w.wconst
    ~extra:w.wextra (Tableau.reoptimize w.wstate)

(* Sensitivity wrappers: translate between declared variables / user
   constraint rows and the tableau's x indices / normalised rows.  The
   tableau applies the stored row flips itself, so right-hand-side
   directions pass through in caller sign; objective deltas flip with
   the optimisation direction. *)

type prediction = { predicted : outcome; repivoted : bool }

let warm_basis w = Tableau.basis_snapshot w.wstate

let warm_duals w = Array.sub (Tableau.dual_values w.wstate) 0 w.wn_user

let x_index_of_var w v =
  if v < 0 then invalid_arg "Problem: unknown variable"
  else if v < w.wn0 then
    match w.wenc.(v) with
    | Shifted { col; _ } -> col
    | Split _ -> invalid_arg "Problem: free variable has no single column"
  else
    match List.assoc_opt v w.wextra with
    | Some xi -> xi
    | None -> invalid_arg "Problem: unknown variable"

let warm_reduced_cost w v = Tableau.reduced_cost_of w.wstate (x_index_of_var w v)

let check_dir w dir =
  List.iter
    (fun (i, _) ->
      if i < 0 || i >= w.wn_user then invalid_arg "Problem: unknown constraint")
    dir

let rhs_ranging w ~dir =
  check_dir w dir;
  Tableau.rhs_ranging w.wstate ~dir

let predict_rhs_delta w ~dir ~t =
  check_dir w dir;
  let r, repivoted = Tableau.predict_rhs w.wstate ~dir ~t in
  {
    predicted =
      outcome_of_result ~n_user:w.wn_user ~enc:w.wenc ~flip:w.wflip ~const_term:w.wconst
        ~extra:w.wextra r;
    repivoted;
  }

let obj_ranging w v =
  let lo, hi = Tableau.cost_ranging w.wstate (x_index_of_var w v) in
  if w.wflip >= 0.0 then (lo, hi) else (-.hi, -.lo)

let predict_obj_delta w v ~delta =
  let xi = x_index_of_var w v in
  let shift =
    if v < w.wn0 then match w.wenc.(v) with Shifted { lo; _ } -> lo | Split _ -> 0.0
    else 0.0
  in
  let r, repivoted = Tableau.predict_cost w.wstate ~col:xi ~delta:(w.wflip *. delta) in
  {
    predicted =
      outcome_of_result ~n_user:w.wn_user ~enc:w.wenc ~flip:w.wflip
        ~const_term:(w.wconst +. (delta *. shift)) ~extra:w.wextra r;
    repivoted;
  }

let value_exn outcome v =
  match outcome with
  | Solution s -> s.values v
  | Unbounded -> failwith "Problem.value_exn: unbounded"
  | Infeasible -> failwith "Problem.value_exn: infeasible"

let objective_exn = function
  | Solution s -> s.objective
  | Unbounded -> failwith "Problem.objective_exn: unbounded"
  | Infeasible -> failwith "Problem.objective_exn: infeasible"

let pp fmt t =
  let dcls = decls t in
  Format.fprintf fmt "@[<v>%a %s:@," Types.pp_objective t.objective t.pname;
  Format.fprintf fmt "  obj:";
  Array.iter (fun d -> if d.obj <> 0.0 then Format.fprintf fmt " %+g*%s" d.obj d.vname) dcls;
  Format.fprintf fmt "@,";
  List.iter
    (fun c ->
      Format.fprintf fmt "  %s:" c.cname;
      List.iter (fun (v, k) -> Format.fprintf fmt " %+g*%s" k dcls.(v).vname) c.terms;
      Format.fprintf fmt " %a %g@," Types.pp_sense c.sense c.rhs)
    (constraints t);
  Array.iter
    (fun d ->
      match d.upper with
      | Some u -> Format.fprintf fmt "  %g <= %s <= %g@," d.lower d.vname u
      | None ->
        if d.lower <> 0.0 then Format.fprintf fmt "  %s >= %g@," d.vname d.lower)
    dcls;
  Format.fprintf fmt "@]"
