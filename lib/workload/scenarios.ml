module Rate = Wsn_radio.Rate
module Model = Wsn_conflict.Model
module Schedule = Wsn_sched.Schedule
module Flow = Wsn_availbw.Flow
module Generator = Wsn_net.Generator
module Streams = Wsn_prng.Streams
module Pcg32 = Wsn_prng.Pcg32

module Scenario_i = struct
  let rate_mbps = 54.0

  (* A one-rate table: range/SNR values are irrelevant to a declared
     model but must be well-formed. *)
  let table = Rate.make_table [ { Rate.mbps = rate_mbps; range_m = 59.0; snr_db = 24.56 } ]

  let the_rate = 0

  let model =
    Model.declared ~n_links:3 ~rates:table
      ~alone_rates:(fun _ -> [ the_rate ])
      ~interferes:(fun (l1, _) (l2, _) ->
        (* Link 2 interferes with both others; links 0 and 1 are
           mutually independent. *)
        l1 = 2 || l2 = 2)

  let check_lambda lambda =
    if lambda < 0.0 || lambda > 0.5 then invalid_arg "Scenario_i: lambda must be in [0, 0.5]"

  let background ~lambda =
    check_lambda lambda;
    [
      Flow.make ~path:[ 0 ] ~demand_mbps:(lambda *. rate_mbps);
      Flow.make ~path:[ 1 ] ~demand_mbps:(lambda *. rate_mbps);
    ]

  let new_path = [ 2 ]

  let naive_schedule ~lambda =
    check_lambda lambda;
    Schedule.make
      [
        { Schedule.links = [ 0 ]; rates = [ the_rate ]; share = lambda };
        { Schedule.links = [ 1 ]; rates = [ the_rate ]; share = lambda };
      ]

  let idle_time_estimate ~lambda =
    check_lambda lambda;
    (1.0 -. (2.0 *. lambda)) *. rate_mbps

  let optimal_bandwidth ~lambda =
    check_lambda lambda;
    (1.0 -. lambda) *. rate_mbps
end

module Scenario_ii = struct
  let table = Rate.chain_36_54

  let rate_54 = 0

  let rate_36 = 1

  (* Interference by fiat (Section 3.1): any two of {0,1,2} interfere at
     every rate; likewise {1,2,3}; links 0 and 3 interfere iff link 0
     uses 54 Mbit/s. *)
  let interferes (l1, r1) (l2, r2) =
    let lo = min l1 l2 and hi = max l1 l2 in
    let lo_rate = if lo = l1 then r1 else r2 in
    if lo = hi then true
    else if hi <= 2 then true (* both in {0,1,2} *)
    else if lo >= 1 then true (* both in {1,2,3} *)
    else (* pair (0, 3) *) lo_rate = rate_54

  let model =
    Model.declared ~n_links:4 ~rates:table
      ~alone_rates:(fun _ -> [ rate_54; rate_36 ])
      ~interferes

  let path = [ 0; 1; 2; 3 ]

  let paper_optimum = 16.2

  let paper_fixed_rate_bounds = (13.5, 108.0 /. 7.0)
end

module Random_scenario = struct
  type t = {
    topology : Wsn_net.Topology.t;
    model : Model.t;
    flows : (int * int * float) list;
  }

  let generate ?(config = Generator.paper_config) ?(n_flows = 8) ?(demand_mbps = 2.0) ~seed () =
    let streams = Streams.create seed in
    let topology = Generator.connected_topology (Streams.stream streams "topology") config in
    let pairs =
      Generator.random_pairs (Streams.stream streams "flows") ~n_nodes:config.Generator.n_nodes
        ~count:n_flows
    in
    {
      topology;
      model = Model.physical topology;
      flows = List.map (fun (s, d) -> (s, d, demand_mbps)) pairs;
    }
end

module Scale_scenario = struct
  type t = {
    topology : Wsn_net.Topology.t;
    model : Model.t;
    flows : (int * int * float) list;
  }

  (* Scaling the paper's 400 × 600 rectangle by sqrt(n/30) keeps the
     node density — and hence the expected degree (~10 under the
     802.11a PHY) — constant, so the topologies stay connected with
     high probability and rejection sampling converges at any n. *)
  let config ~n_nodes =
    if n_nodes < 2 then invalid_arg "Scale_scenario.config: need at least 2 nodes";
    let base = Generator.paper_config in
    let s = sqrt (float_of_int n_nodes /. float_of_int base.Generator.n_nodes) in
    {
      base with
      Generator.n_nodes;
      width_m = base.Generator.width_m *. s;
      height_m = base.Generator.height_m *. s;
    }

  let default_n_flows n_nodes = max 8 (n_nodes / 25)

  let generate ?n_flows ?(demand_mbps = 0.5) ~n_nodes ~seed () =
    let config = config ~n_nodes in
    let n_flows =
      match n_flows with Some n -> n | None -> default_n_flows n_nodes
    in
    let streams = Streams.create seed in
    let topology = Generator.connected_topology (Streams.stream streams "topology") config in
    let pairs =
      Generator.random_pairs (Streams.stream streams "flows") ~n_nodes ~count:n_flows
    in
    {
      topology;
      model = Model.physical topology;
      flows = List.map (fun (s, d) -> (s, d, demand_mbps)) pairs;
    }
end

module Admission_trace = struct
  module Json = Wsn_telemetry.Json

  type op =
    | Admit of { source : int; target : int; demand_mbps : float }
    | Release_nth of int
    | Query of { source : int; target : int; demand_mbps : float option }

  type t = op list

  (* Event times compete as exponentials: admissions at [arrival_rate],
     releases at [n_live · release_rate] (each live flow departs
     independently), queries at [query_rate].  [n_live] tracks flows the
     trace has admitted, assuming admits succeed: if the server rejects
     one, a later [Release_nth] may overshoot the live set and draw an
     error response — deterministic either way, so traces stay replayable
     against any server mode. *)
  let generate ?(n_nodes = 30) ?(n_ops = 100) ?(arrival_rate = 1.0) ?(release_rate = 0.25)
      ?(query_rate = 1.5) ~seed () =
    if n_nodes < 2 then invalid_arg "Admission_trace.generate: need at least 2 nodes";
    if n_ops < 0 then invalid_arg "Admission_trace.generate: negative n_ops";
    let streams = Streams.create seed in
    let g = Streams.stream streams "admission-trace" in
    let random_pair () =
      let s = Pcg32.next_below g n_nodes in
      let t = (s + 1 + Pcg32.next_below g (n_nodes - 1)) mod n_nodes in
      (s, t)
    in
    (* A few hotspot endpoint pairs dominate the trace so a session's
       memo and column pool see realistic repeat traffic. *)
    let hotspots = Array.init 6 (fun _ -> random_pair ()) in
    let endpoints () =
      if Pcg32.next_float g < 0.7 then Pcg32.pick g hotspots else random_pair ()
    in
    let demand () = 0.25 *. float_of_int (1 + Pcg32.next_below g 12) in
    let n_live = ref 0 in
    let ops = ref [] in
    for _ = 1 to n_ops do
      let t_admit = Pcg32.exponential g arrival_rate in
      let t_query = Pcg32.exponential g query_rate in
      let t_release =
        if !n_live = 0 then infinity
        else Pcg32.exponential g (release_rate *. float_of_int !n_live)
      in
      let op =
        if t_admit <= t_query && t_admit <= t_release then begin
          incr n_live;
          let source, target = endpoints () in
          Admit { source; target; demand_mbps = demand () }
        end
        else if t_release <= t_query then begin
          let k = Pcg32.next_below g !n_live in
          decr n_live;
          Release_nth k
        end
        else begin
          let source, target = endpoints () in
          let demand_mbps = if Pcg32.next_float g < 0.5 then Some (demand ()) else None in
          Query { source; target; demand_mbps }
        end
      in
      ops := op :: !ops
    done;
    List.rev !ops

  (* Demands cross the wire at the protocol's 3 decimals. *)
  let request_line op =
    let endpoints source target = [ ("source", Json.Int source); ("target", Json.Int target) ] in
    let demand d = [ ("demand_mbps", Json.Fixed (3, d)) ] in
    Json.to_string
      (Json.Obj
         (match op with
          | Admit { source; target; demand_mbps } ->
            (("op", Json.Str "admit") :: endpoints source target) @ demand demand_mbps
          | Release_nth k -> [ ("op", Json.Str "release"); ("nth", Json.Int k) ]
          | Query { source; target; demand_mbps } ->
            (("op", Json.Str "query") :: endpoints source target)
            @ Option.fold ~none:[] ~some:demand demand_mbps))

  let to_request_lines t = List.map request_line t
end
