module Topology = Wsn_net.Topology
module Phy = Wsn_radio.Phy
module Rate = Wsn_radio.Rate
module Digraph = Wsn_graph.Digraph
module Pcg32 = Wsn_prng.Pcg32
module Dcf_config = Wsn_mac.Dcf_config
module Event_queue = Wsn_mac.Event_queue
module Sim = Wsn_mac.Sim
module Telemetry = Wsn_telemetry.Registry

let m_slots = Telemetry.counter "mac.slots"

let m_frames_sent = Telemetry.counter "mac.frames_sent"

let m_collisions = Telemetry.counter "mac.collisions"

(* The original slot-stepping loop, kept verbatim as the behavioural
   oracle: [Sim.run] must reproduce its output byte for byte (the
   QCheck parity suite in test_mac pins this).  Per-slot cost is
   O(n * active) with fresh power-law evaluations and list allocations
   — exactly what the fast path removes. *)

type frame = {
  flow : int;
  remaining : int list;  (* links still to traverse, head next *)
  born_us : int;  (* arrival time at the flow's source *)
}

type ongoing = {
  frame : frame;
  link : int;
  mutable slots_left : int;
  mutable corrupted : bool;
}

type station = {
  id : int;
  queue : frame Queue.t;
  mutable current : frame option;  (* head-of-line frame, kept across retries *)
  mutable difs_progress : int;
  mutable backoff : int option;
  mutable cw : int;
  mutable retries : int;
  mutable tx : ongoing option;
}

let run ?(config = Dcf_config.default) ?(seed = 1L) topo ~flows ~duration_us =
  Wsn_telemetry.Span.with_span "mac.run_reference" @@ fun () ->
  Sim.validate_flows topo flows;
  let phy = Topology.phy topo in
  let n = Topology.n_nodes topo in
  let flows_arr = Array.of_list flows in
  let n_flows = Array.length flows_arr in
  let rng = Pcg32.create seed in
  let slot_us = config.Dcf_config.slot_us in
  let total_slots = duration_us / slot_us in
  let difs_slots = Dcf_config.difs_slots config in
  let stations =
    Array.init n (fun id ->
        {
          id;
          queue = Queue.create ();
          current = None;
          difs_progress = 0;
          backoff = None;
          cw = config.Dcf_config.cw_min;
          retries = 0;
          tx = None;
        })
  in
  let link_src l = (Topology.link topo l).Digraph.src in
  let link_dst l = (Topology.link topo l).Digraph.dst in
  (* Precompute distances between all node pairs once: O(n^2) floats. *)
  let dist = Array.init n (fun u -> Array.init n (fun v -> Topology.node_distance topo u v)) in
  (* Arrival events: (flow index); rescheduled after each arrival. *)
  let arrivals = Event_queue.create () in
  Array.iteri
    (fun i spec ->
      if spec.Sim.demand_mbps > 0.0 then begin
        let interval_us = float_of_int config.Dcf_config.payload_bits /. spec.demand_mbps in
        let jitter = int_of_float (Pcg32.uniform rng 0.0 interval_us) in
        Event_queue.schedule arrivals ~time:jitter i
      end)
    flows_arr;
  let interval_us i = float_of_int config.Dcf_config.payload_bits /. flows_arr.(i).Sim.demand_mbps in
  (* Stats accumulators. *)
  let busy_slots = Array.make n 0 in
  let delivered_frames = Array.make n_flows 0 in
  let latencies : int list array = Array.make n_flows [] in
  let now_ref = ref 0 in
  let dropped_frames = Array.make n_flows 0 in
  let frames_sent = ref 0 in
  let collisions = ref 0 in
  let enqueue_frame node frame =
    let st = stations.(node) in
    if st.current = None then st.current <- Some frame
    else if Queue.length st.queue >= config.Dcf_config.queue_limit then
      dropped_frames.(frame.flow) <- dropped_frames.(frame.flow) + 1
    else Queue.add frame st.queue
  in
  let next_frame st =
    st.current <- (if Queue.is_empty st.queue then None else Some (Queue.take st.queue));
    st.retries <- 0;
    st.cw <- config.Dcf_config.cw_min;
    st.backoff <- None
  in
  let start_transmission st frame =
    let link = match frame.remaining with l :: _ -> l | [] -> assert false in
    let rate = Topology.alone_rate topo link in
    let slots = Dcf_config.tx_slots config ~rate_mbps:(Rate.mbps (Phy.rates phy) rate) in
    st.tx <- Some { frame; link; slots_left = slots; corrupted = false };
    st.backoff <- None;
    st.difs_progress <- 0;
    incr frames_sent
  in
  let finish_transmission st ongoing =
    st.tx <- None;
    if ongoing.corrupted then begin
      incr collisions;
      st.retries <- st.retries + 1;
      if st.retries > config.Dcf_config.retry_limit then begin
        dropped_frames.(ongoing.frame.flow) <- dropped_frames.(ongoing.frame.flow) + 1;
        next_frame st
      end
      else begin
        st.cw <- min (2 * st.cw) config.Dcf_config.cw_max;
        st.backoff <- None
      end
    end
    else begin
      (match ongoing.frame.remaining with
       | [] -> assert false
       | link :: rest ->
         if rest = [] then begin
           let fl = ongoing.frame.flow in
           delivered_frames.(fl) <- delivered_frames.(fl) + 1;
           latencies.(fl) <- (!now_ref - ongoing.frame.born_us) :: latencies.(fl)
         end
         else enqueue_frame (link_dst link) { ongoing.frame with remaining = rest });
      next_frame st
    end
  in
  for slot = 0 to total_slots - 1 do
    let now_us = slot * slot_us in
    now_ref := now_us + slot_us;
    (* 1. Traffic arrivals due in this slot. *)
    List.iter
      (fun (_, i) ->
        let spec = flows_arr.(i) in
        enqueue_frame (link_src (List.hd spec.Sim.links))
          { flow = i; remaining = spec.links; born_us = now_us };
        let next = now_us + int_of_float (interval_us i) in
        if next < duration_us then Event_queue.schedule arrivals ~time:next i)
      (Event_queue.pop_until arrivals ~time:(now_us + slot_us - 1));
    (* 2. Channel state from transmissions already in flight.  With
       RTS/CTS, the receiver's CTS silences its neighbourhood too
       (virtual carrier sensing). *)
    let currently_active st = st.tx <> None in
    let heard_from st v =
      st.id <> v
      && (Phy.carrier_sensed phy dist.(st.id).(v)
         || (config.Dcf_config.rts_cts
            &&
            match st.tx with
            | Some ongoing ->
              let rx = link_dst ongoing.link in
              rx <> v && Phy.carrier_sensed phy dist.(rx).(v)
            | None -> false))
    in
    let sensed_busy v =
      Array.exists (fun st -> currently_active st && heard_from st v) stations
    in
    (* 3. Contention: stations defer, run DIFS, count down backoff, and
       possibly begin transmitting in this slot. *)
    Array.iter
      (fun st ->
        if st.tx = None then begin
          match st.current with
          | None -> ()
          | Some frame ->
            if sensed_busy st.id then begin
              st.difs_progress <- 0
              (* backoff freezes implicitly: only decremented on idle *)
            end
            else if st.difs_progress < difs_slots then
              st.difs_progress <- st.difs_progress + 1
            else begin
              match st.backoff with
              | None -> st.backoff <- Some (Pcg32.next_below rng st.cw)
              | Some 0 -> start_transmission st frame
              | Some k -> st.backoff <- Some (k - 1)
            end
        end)
      stations;
    (* 4. Reception: with the final active set of this slot, corrupt any
       frame whose receiver is transmitting or whose SINR falls below
       its rate's requirement. *)
    let active = Array.to_list stations |> List.filter currently_active in
    List.iter
      (fun st ->
        match st.tx with
        | None -> ()
        | Some ongoing ->
          let rx = link_dst ongoing.link in
          let interferers =
            List.filter_map
              (fun other -> if other.id = st.id then None else Some dist.(other.id).(rx))
              active
          in
          let rate = Topology.alone_rate topo ongoing.link in
          let sinr =
            Phy.sinr phy ~signal_distance:dist.(st.id).(rx) ~interferer_distances:interferers
          in
          if stations.(rx).tx <> None || sinr < Rate.snr_linear (Phy.rates phy) rate then
            ongoing.corrupted <- true)
      active;
    (* 5. Busy-time accounting with the final active set. *)
    Array.iteri
      (fun v st ->
        let busy = currently_active st || List.exists (fun other -> heard_from other v) active in
        if busy then busy_slots.(v) <- busy_slots.(v) + 1)
      stations;
    (* 6. Advance transmissions. *)
    Array.iter
      (fun st ->
        match st.tx with
        | None -> ()
        | Some ongoing ->
          ongoing.slots_left <- ongoing.slots_left - 1;
          if ongoing.slots_left <= 0 then finish_transmission st ongoing)
      stations
  done;
  Telemetry.add m_slots total_slots;
  Telemetry.add m_frames_sent !frames_sent;
  Telemetry.add m_collisions !collisions;
  let seconds = float_of_int (total_slots * slot_us) /. 1e6 in
  let flow_stats =
    Array.mapi
      (fun i spec ->
        let lats = List.sort compare latencies.(i) in
        let count = List.length lats in
        let mean_latency_us =
          if count = 0 then nan
          else float_of_int (List.fold_left ( + ) 0 lats) /. float_of_int count
        in
        let p95_latency_us =
          if count = 0 then nan
          else float_of_int (List.nth lats (min (count - 1) (95 * count / 100)))
        in
        {
          Sim.offered_mbps = spec.Sim.demand_mbps;
          delivered_mbps =
            float_of_int (delivered_frames.(i) * config.Dcf_config.payload_bits)
            /. (seconds *. 1e6);
          frames_delivered = delivered_frames.(i);
          frames_dropped = dropped_frames.(i);
          mean_latency_us;
          p95_latency_us;
        })
      flows_arr
  in
  {
    Sim.duration_us = total_slots * slot_us;
    node_idleness =
      Array.map
        (fun b -> 1.0 -. (float_of_int b /. float_of_int (max total_slots 1)))
        busy_slots;
    flows = flow_stats;
    frames_sent = !frames_sent;
    collisions = !collisions;
  }
