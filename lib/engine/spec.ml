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

let hash t = Digest.to_hex (Digest.string (canonical t))
