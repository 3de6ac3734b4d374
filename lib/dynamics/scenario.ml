module Point = Wsn_net.Point
module Topology = Wsn_net.Topology
module Generator = Wsn_net.Generator
module Streams = Wsn_prng.Streams
module Pcg32 = Wsn_prng.Pcg32

type params = {
  n_nodes : int;
  n_flows0 : int;
  demand_mbps : float;
  horizon_h : float;
  epochs : int;
  arrival_per_h : float;
  departure_per_h : float;
  leave_per_h : float;
  join_per_h : float;
  mobile_frac : float;
  speed_mps : float * float;
  diurnal_amp : float;
}

let default =
  {
    n_nodes = 30;
    n_flows0 = 6;
    demand_mbps = 0.5;
    horizon_h = 24.0;
    epochs = 48;
    arrival_per_h = 1.5;
    departure_per_h = 0.25;
    leave_per_h = 0.05;
    join_per_h = 1.0;
    mobile_frac = 0.2;
    speed_mps = (0.02, 0.1);
    diurnal_amp = 0.5;
  }

type event =
  | Flow_arrival of { source : int; target : int; demand_mbps : float }
  | Flow_departure of int
  | Node_leave of int
  | Node_join of { node : int; pos : Point.t }

type epoch = {
  index : int;
  t_start_h : float;
  demand_scale : float;
  events : event list;
  moves : (int * Point.t) list;
}

type t = {
  params : params;
  seed : int64;
  base : Topology.t;
  probe_source : int;
  probe_target : int;
  timeline : epoch list;
}

(* Parked nodes sit on a line 50 km outside the arena, 1 km apart —
   far beyond any carrier-sense range, so they form no links among
   themselves or with the arena. *)
let park_position i =
  Point.make (-50_000.0 -. (1_000.0 *. float_of_int i)) (-50_000.0)

let demand_scale p ~t_h =
  1.0 +. (p.diurnal_amp *. sin (2.0 *. Float.pi *. ((t_h -. 6.0) /. 24.0)))

let validate p =
  let fail msg = invalid_arg ("Wsn_dynamics.Scenario: " ^ msg) in
  if p.n_nodes < 2 then fail "n_nodes must be at least 2";
  if p.n_flows0 < 0 then fail "n_flows0 must be non-negative";
  if p.demand_mbps <= 0.0 then fail "demand_mbps must be positive";
  if p.horizon_h <= 0.0 then fail "horizon_h must be positive";
  if p.epochs < 1 then fail "epochs must be at least 1";
  if
    p.arrival_per_h < 0.0 || p.departure_per_h < 0.0 || p.leave_per_h < 0.0
    || p.join_per_h < 0.0
  then fail "event rates must be non-negative";
  if p.mobile_frac < 0.0 || p.mobile_frac > 1.0 then
    fail "mobile_frac must be within [0, 1]";
  (let lo, hi = p.speed_mps in
   if lo < 0.0 || hi < lo then fail "speed_mps must satisfy 0 <= lo <= hi");
  if p.diurnal_amp < 0.0 || p.diurnal_amp >= 1.0 then
    fail "diurnal_amp must be within [0, 1)"

(* Left-to-right tabulation: Array.init's evaluation order is
   unspecified, which would make PRNG-backed draws non-portable. *)
let sample n f =
  if n = 0 then [||]
  else begin
    let a = Array.make n (f ()) in
    for i = 1 to n - 1 do
      a.(i) <- f ()
    done;
    a
  end

(* One straight-line random-waypoint step of length [step] from [p]
   toward [w]; returns the new position and whether [w] was reached
   (the leftover distance of a reaching step is dropped). *)
let step_toward p w step =
  let d = Point.distance p w in
  if d <= step then (w, true)
  else
    let f = step /. d in
    ( Point.make
        (p.Point.x +. (f *. (w.Point.x -. p.Point.x)))
        (p.Point.y +. (f *. (w.Point.y -. p.Point.y))),
      false )

let generate ?(params = default) ~seed () =
  validate params;
  let p = params in
  let n = p.n_nodes in
  let streams = Streams.create seed in
  let cfg = Wsn_workload.Scenarios.Scale_scenario.config ~n_nodes:n in
  let base =
    Generator.connected_topology (Streams.stream streams "dyn-topology") cfg
  in
  let gflow = Streams.stream streams "dyn-flows" in
  let gmove = Streams.stream streams "dyn-waypoints" in
  let gevent = Streams.stream streams "dyn-events" in
  (* Pinned probe endpoints: distinct, drawn bias-free. *)
  let probe_source = Pcg32.next_below gflow n in
  let probe_target =
    let j = Pcg32.next_below gflow (n - 1) in
    if j >= probe_source then j + 1 else j
  in
  let pinned i = i = probe_source || i = probe_target in
  let epoch_h = p.horizon_h /. float_of_int p.epochs in
  let epoch_of t = min (p.epochs - 1) (int_of_float (t /. epoch_h)) in
  let rev_events = Array.make p.epochs [] in
  let push e ev = rev_events.(e) <- ev :: rev_events.(e) in
  (* --- Phase A: the event stream (competing exponentials). --- *)
  let active = Array.make n true in
  let all_ids = List.init n Fun.id in
  let draw_pair g =
    let ids =
      Array.of_list (List.filter (fun i -> active.(i)) all_ids)
    in
    let si = Pcg32.next_below g (Array.length ids) in
    let tj = Pcg32.next_below g (Array.length ids - 1) in
    (ids.(si), ids.(if tj >= si then tj + 1 else tj))
  in
  let arrival g =
    let source, target = draw_pair g in
    let demand_mbps = p.demand_mbps *. (0.5 +. Pcg32.next_float g) in
    Flow_arrival { source; target; demand_mbps }
  in
  let n_live = ref 0 in
  for _ = 1 to p.n_flows0 do
    push 0 (arrival gflow);
    incr n_live
  done;
  let n_leavable = ref (n - 2) in
  (* active && unpinned *)
  let n_parked = ref 0 in
  let exp_or_inf g rate =
    if rate <= 0.0 then infinity else Pcg32.exponential g rate
  in
  let t = ref 0.0 in
  let running = ref true in
  while !running do
    let t_arr = exp_or_inf gevent p.arrival_per_h in
    let t_dep = exp_or_inf gevent (p.departure_per_h *. float_of_int !n_live) in
    let t_leave =
      exp_or_inf gevent (p.leave_per_h *. float_of_int !n_leavable)
    in
    let t_join = exp_or_inf gevent (p.join_per_h *. float_of_int !n_parked) in
    let dt = min (min t_arr t_dep) (min t_leave t_join) in
    if dt = infinity || !t +. dt >= p.horizon_h then running := false
    else begin
      t := !t +. dt;
      let e = epoch_of !t in
      if dt = t_arr then begin
        push e (arrival gevent);
        incr n_live
      end
      else if dt = t_dep then begin
        let k = Pcg32.next_below gevent !n_live in
        decr n_live;
        push e (Flow_departure k)
      end
      else if dt = t_leave then begin
        let cand =
          Array.of_list
            (List.filter (fun i -> active.(i) && not (pinned i)) all_ids)
        in
        let u = Pcg32.pick gevent cand in
        active.(u) <- false;
        decr n_leavable;
        incr n_parked;
        push e (Node_leave u)
      end
      else begin
        let cand =
          Array.of_list (List.filter (fun i -> not active.(i)) all_ids)
        in
        let u = Pcg32.pick gevent cand in
        let pos =
          Point.make
            (Pcg32.uniform gevent 0.0 cfg.Generator.width_m)
            (Pcg32.uniform gevent 0.0 cfg.Generator.height_m)
        in
        active.(u) <- true;
        incr n_leavable;
        decr n_parked;
        push e (Node_join { node = u; pos })
      end
    end
  done;
  (* --- Phase B: waypoint drift, replayed over the event timeline so
     only nodes active during an epoch accumulate movement. --- *)
  let lo, hi = p.speed_mps in
  let mobile = sample n (fun () -> Pcg32.next_float gmove < p.mobile_frac) in
  let draw_waypoint () =
    Point.make
      (Pcg32.uniform gmove 0.0 cfg.Generator.width_m)
      (Pcg32.uniform gmove 0.0 cfg.Generator.height_m)
  in
  let waypoint = sample n draw_waypoint in
  let speed = sample n (fun () -> Pcg32.uniform gmove lo hi) in
  let epoch_s = epoch_h *. 3600.0 in
  let pos = Array.init n (Topology.position base) in
  let act = Array.make n true in
  let timeline = ref [] in
  for e = 0 to p.epochs - 1 do
    let moves =
      if e = 0 then []
      else begin
        let acc = ref [] in
        for i = 0 to n - 1 do
          if mobile.(i) && act.(i) then begin
            let step = speed.(i) *. epoch_s in
            let p1, reached = step_toward pos.(i) waypoint.(i) step in
            if reached then begin
              waypoint.(i) <- draw_waypoint ();
              speed.(i) <- Pcg32.uniform gmove lo hi
            end;
            if p1 <> pos.(i) then begin
              pos.(i) <- p1;
              acc := (i, p1) :: !acc
            end
          end
        done;
        List.rev !acc
      end
    in
    let events = List.rev rev_events.(e) in
    List.iter
      (function
        | Node_leave u ->
            act.(u) <- false;
            pos.(u) <- park_position u
        | Node_join { node; pos = q } ->
            act.(node) <- true;
            pos.(node) <- q
        | Flow_arrival _ | Flow_departure _ -> ())
      events;
    let t_start_h = float_of_int e *. epoch_h in
    timeline :=
      {
        index = e;
        t_start_h;
        demand_scale = demand_scale p ~t_h:(t_start_h +. (0.5 *. epoch_h));
        events;
        moves;
      }
      :: !timeline
  done;
  { params = p; seed; base; probe_source; probe_target;
    timeline = List.rev !timeline }
