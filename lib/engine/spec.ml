type t = {
  kind : string;
  seed : int64;
  n_flows : int;
  demand_mbps : float;
  metric : string;
}

(* Names must survive unquoted inside the one-line canonical form. *)
let valid_token s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '.' || c = '-')
       s

let make ~kind ~seed ~n_flows ~demand_mbps ~metric =
  if not (valid_token kind) then invalid_arg "Spec.make: kind must match [A-Za-z0-9_.-]+";
  if not (valid_token metric) then invalid_arg "Spec.make: metric must match [A-Za-z0-9_.-]+";
  if n_flows < 0 then invalid_arg "Spec.make: n_flows < 0";
  if not (Float.is_finite demand_mbps) then invalid_arg "Spec.make: demand must be finite";
  { kind; seed; n_flows; demand_mbps; metric }

let canonical t =
  Printf.sprintf "kind=%s seed=%Ld n_flows=%d demand=%h metric=%s" t.kind t.seed t.n_flows
    t.demand_mbps t.metric

let of_canonical line =
  let ( let* ) = Result.bind in
  let field word key =
    match String.index_opt word '=' with
    | Some i when String.sub word 0 i = key ->
      Ok (String.sub word (i + 1) (String.length word - i - 1))
    | _ -> Error (Printf.sprintf "spec: expected %s=..., got %S" key word)
  in
  match String.split_on_char ' ' (String.trim line) with
  | [ w_kind; w_seed; w_flows; w_demand; w_metric ] ->
    let* kind = field w_kind "kind" in
    let* seed = field w_seed "seed" in
    let* n_flows = field w_flows "n_flows" in
    let* demand = field w_demand "demand" in
    let* metric = field w_metric "metric" in
    let* seed =
      match Int64.of_string_opt seed with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "spec: seed %S is not an integer" seed)
    in
    let* n_flows =
      match int_of_string_opt n_flows with
      | Some v when v >= 0 -> Ok v
      | _ -> Error (Printf.sprintf "spec: n_flows %S is not a non-negative integer" n_flows)
    in
    let* demand_mbps =
      match float_of_string_opt demand with
      | Some v when Float.is_finite v -> Ok v
      | _ -> Error (Printf.sprintf "spec: demand %S is not a finite float" demand)
    in
    if not (valid_token kind) then Error (Printf.sprintf "spec: bad kind %S" kind)
    else if not (valid_token metric) then Error (Printf.sprintf "spec: bad metric %S" metric)
    else Ok { kind; seed; n_flows; demand_mbps; metric }
  | words -> Error (Printf.sprintf "spec: expected 5 fields, got %d" (List.length words))

let hash t = Digest.to_hex (Digest.string (canonical t))

let equal a b = String.equal (canonical a) (canonical b)
