module Dcf_config = Wsn_mac.Dcf_config

type prediction = {
  tau : float;
  collision_probability : float;
  total_throughput_mbps : float;
}

let tau_of_p config p =
  let w = float_of_int config.Dcf_config.cw_min in
  let m =
    (* Doublings available before the window caps. *)
    let rec count k cw = if 2 * cw > config.Dcf_config.cw_max then k else count (k + 1) (2 * cw) in
    float_of_int (count 0 config.Dcf_config.cw_min)
  in
  if p >= 0.5 -. 1e-12 then
    (* Degenerate branch of the closed form; take the limit value. *)
    2.0 /. (w +. 1.0) /. (1.0 +. (p *. w))
  else begin
    let q = 1.0 -. (2.0 *. p) in
    2.0 *. q /. ((q *. (w +. 1.0)) +. (p *. w *. (1.0 -. ((2.0 *. p) ** m))))
  end

let predict ?(config = Dcf_config.default) ~n_stations ~rate_mbps () =
  if n_stations < 1 then invalid_arg "Saturation.predict: need at least one station";
  if rate_mbps <= 0.0 then invalid_arg "Saturation.predict: non-positive rate";
  let n = float_of_int n_stations in
  (* Fixed point: g(p) = 1 - (1 - tau(p))^(n-1) - p is decreasing from
     g(0) >= 0 to g(1) <= 0; bisect. *)
  let g p = 1.0 -. ((1.0 -. tau_of_p config p) ** (n -. 1.0)) -. p in
  let rec bisect lo hi k =
    if k = 0 then (lo +. hi) /. 2.0
    else begin
      let mid = (lo +. hi) /. 2.0 in
      if g mid > 0.0 then bisect mid hi (k - 1) else bisect lo mid (k - 1)
    end
  in
  let p = if n_stations = 1 then 0.0 else bisect 0.0 1.0 60 in
  let tau = tau_of_p config p in
  let p_tr = 1.0 -. ((1.0 -. tau) ** n) in
  let p_success = if p_tr <= 0.0 then 0.0 else n *. tau *. ((1.0 -. tau) ** (n -. 1.0)) /. p_tr in
  let ts_slots =
    float_of_int (Dcf_config.tx_slots config ~rate_mbps + Dcf_config.difs_slots config)
  in
  let expected_slot_len = ((1.0 -. p_tr) *. 1.0) +. (p_tr *. ts_slots) in
  let payload_per_slot = p_tr *. p_success *. float_of_int config.Dcf_config.payload_bits in
  let throughput =
    payload_per_slot /. (expected_slot_len *. float_of_int config.Dcf_config.slot_us)
  in
  { tau; collision_probability = p; total_throughput_mbps = throughput }
