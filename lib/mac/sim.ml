module Topology = Wsn_net.Topology
module Phy = Wsn_radio.Phy
module Rate = Wsn_radio.Rate
module Digraph = Wsn_graph.Digraph
module Pcg32 = Wsn_prng.Pcg32
module Bitset = Wsn_conflict.Bitset
module Telemetry = Wsn_telemetry.Registry

let m_slots = Telemetry.counter "mac.slots"

let m_frames_sent = Telemetry.counter "mac.frames_sent"

let m_collisions = Telemetry.counter "mac.collisions"

let m_slots_skipped = Telemetry.counter "mac.slots_skipped"

let m_active_stations = Telemetry.histogram "mac.active_stations"

type flow_spec = { links : int list; demand_mbps : float }

type flow_stats = {
  offered_mbps : float;
  delivered_mbps : float;
  frames_delivered : int;
  frames_dropped : int;
  mean_latency_us : float;
  p95_latency_us : float;
}

type stats = {
  duration_us : int;
  node_idleness : float array;
  flows : flow_stats array;
  frames_sent : int;
  collisions : int;
}

type frame = {
  flow : int;
  remaining : int list;  (* links still to traverse, head next *)
  born_us : int;  (* arrival time at the flow's source *)
}

let link_idleness stats topo l =
  let e = Topology.link topo l in
  Float.min stats.node_idleness.(e.Digraph.src) stats.node_idleness.(e.Digraph.dst)

let validate_flow topo spec =
  if spec.demand_mbps < 0.0 then invalid_arg "Sim: negative demand";
  if spec.links = [] then invalid_arg "Sim: empty route";
  let rec chain = function
    | [] | [ _ ] -> ()
    | a :: (b :: _ as rest) ->
      let ea = Topology.link topo a and eb = Topology.link topo b in
      if ea.Digraph.dst <> eb.Digraph.src then invalid_arg "Sim: route links do not chain";
      chain rest
  in
  chain spec.links

(* --- precomputed channel kernel ------------------------------------- *)

(* Everything in here is a pure function of the (immutable) topology:
   pairwise distances, the received powers they induce, and each node's
   carrier-sense neighbourhood as a bitset.  Built once, shared
   read-only across runs, configs and domains. *)
type prepared = {
  p_topo : Topology.t;
  dist : float array array;  (* [u][v]: node distance, as the reference computes it *)
  pow : float array array;  (* [u][v]: Phy.received_power at dist.(u).(v) *)
  cs : Bitset.t array;  (* [u]: { v <> u | carrier_sensed dist.(u).(v) } *)
}

let prepare topo =
  let phy = Topology.phy topo in
  let n = Topology.n_nodes topo in
  let dist = Array.init n (fun u -> Array.init n (fun v -> Topology.node_distance topo u v)) in
  let pow = Array.init n (fun u -> Array.init n (fun v -> Phy.received_power phy dist.(u).(v))) in
  let cs =
    Array.init n (fun u ->
        let b = Bitset.create n in
        for v = 0 to n - 1 do
          if v <> u && Phy.carrier_sensed phy dist.(u).(v) then Bitset.add b v
        done;
        b)
  in
  { p_topo = topo; dist; pow; cs }

(* Incremental kernel patch for a topology whose node set is unchanged
   but where the nodes in [moved] sit at new positions (mobility, or a
   join/leave parking a node far outside the arena).  Only the rows,
   columns and carrier-sense memberships touching a moved node are
   recomputed — O(|moved| · n) PHY evaluations against [prepare]'s
   O(n²) — through the very same pure functions, so the patched kernel
   is byte-identical to a fresh rebuild (QCheck-gated in test_dynamics).
   The input kernel's arrays are updated in place (the returned value
   aliases them): treat [apply_delta] as consuming its argument. *)
let apply_delta pre topo ~moved =
  let phy = Topology.phy topo in
  let n = Topology.n_nodes topo in
  if n <> Array.length pre.dist then
    invalid_arg "Sim.apply_delta: node count differs from the prepared kernel";
  let is_moved = Array.make n false in
  List.iter
    (fun u ->
      if u < 0 || u >= n then invalid_arg "Sim.apply_delta: moved node out of range";
      is_moved.(u) <- true)
    moved;
  let dist = pre.dist and pow = pre.pow and cs = pre.cs in
  for u = 0 to n - 1 do
    if is_moved.(u) then begin
      for v = 0 to n - 1 do
        let d = Topology.node_distance topo u v in
        dist.(u).(v) <- d;
        pow.(u).(v) <- Phy.received_power phy d;
        if not is_moved.(v) then begin
          (* Symmetric entry: the (v, u) pair also changed.  Computed
             through the same call the rebuild makes for that entry. *)
          let d' = Topology.node_distance topo v u in
          dist.(v).(u) <- d';
          pow.(v).(u) <- Phy.received_power phy d';
          if v <> u then begin
            if Phy.carrier_sensed phy dist.(v).(u) then Bitset.add cs.(v) u
            else Bitset.remove cs.(v) u
          end
        end
      done;
      Bitset.clear cs.(u);
      for v = 0 to n - 1 do
        if v <> u && Phy.carrier_sensed phy dist.(u).(v) then Bitset.add cs.(u) v
      done
    end
  done;
  { pre with p_topo = topo }

(* Content digest of the kernel (distances, powers, carrier-sense
   bitsets — everything but the topology handle), for the byte-identity
   gates comparing [apply_delta] chains against full rebuilds. *)
let prepared_digest pre =
  let buf = Buffer.create (1 lsl 16) in
  let add_matrix m =
    Array.iter
      (fun row -> Array.iter (fun x -> Buffer.add_int64_le buf (Int64.bits_of_float x)) row)
      m
  in
  add_matrix pre.dist;
  add_matrix pre.pow;
  Array.iter
    (fun b -> Array.iter (fun w -> Buffer.add_int64_le buf (Int64.of_int w)) (Bitset.words b))
    pre.cs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- reference implementation --------------------------------------- *)

(* The original slot-stepping loop, kept verbatim as the behavioural
   oracle: [run] below must reproduce its output byte for byte (the
   QCheck parity suite in test_mac pins this).  Per-slot cost is
   O(n * active) with fresh power-law evaluations and list allocations
   — exactly what the fast path removes. *)

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

let run_reference ?(config = Dcf_config.default) ?(seed = 1L) topo ~flows ~duration_us =
  Wsn_telemetry.Span.with_span "mac.run_reference" @@ fun () ->
  List.iter (validate_flow topo) flows;
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
      if spec.demand_mbps > 0.0 then begin
        let interval_us = float_of_int config.Dcf_config.payload_bits /. spec.demand_mbps in
        let jitter = int_of_float (Pcg32.uniform rng 0.0 interval_us) in
        Event_queue.schedule arrivals ~time:jitter i
      end)
    flows_arr;
  let interval_us i = float_of_int config.Dcf_config.payload_bits /. flows_arr.(i).demand_mbps in
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
        enqueue_frame (link_src (List.hd spec.links))
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
          offered_mbps = spec.demand_mbps;
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
    duration_us = total_slots * slot_us;
    node_idleness =
      Array.map
        (fun b -> 1.0 -. (float_of_int b /. float_of_int (max total_slots 1)))
        busy_slots;
    flows = flow_stats;
    frames_sent = !frames_sent;
    collisions = !collisions;
  }

(* --- event-driven fast path ------------------------------------------ *)

(* Bit walks of the fast loop.  The loop walks its bitsets here, over
   [Bitset.words], instead of calling [Bitset.iter]/[iter_union]: with
   every per-event walk in [Sim]'s own code, the loop's speed no longer
   depends on where the linker places [Bitset] relative to [Sim] (a
   ±20% soak swing with identical work, DESIGN.md Appendix E).  Members
   come in ascending order, exactly as [Bitset.iter] visits them, and
   each word is read once before its members are visited, as there. *)

(* Index of the lowest set bit of a nonzero word. *)
let lowest_bit w =
  let n = ref 0 and w = ref w in
  if !w land 0xFFFFFFFF = 0 then begin n := 32; w := !w lsr 32 end;
  if !w land 0xFFFF = 0 then begin n := !n + 16; w := !w lsr 16 end;
  if !w land 0xFF = 0 then begin n := !n + 8; w := !w lsr 8 end;
  if !w land 0xF = 0 then begin n := !n + 4; w := !w lsr 4 end;
  if !w land 0x3 = 0 then begin n := !n + 2; w := !w lsr 2 end;
  if !w land 0x1 = 0 then !n + 1 else !n

let walk_words f base w =
  let w = ref w in
  while !w <> 0 do
    f (base + lowest_bit !w);
    w := !w land (!w - 1)
  done

let walk f s =
  let words = Bitset.words s in
  for wi = 0 to Array.length words - 1 do
    walk_words f (wi * Bitset.word_bits) words.(wi)
  done

let walk_union f a b =
  let wa = Bitset.words a and wb = Bitset.words b in
  for wi = 0 to Array.length wa - 1 do
    walk_words f (wi * Bitset.word_bits) (wa.(wi) lor wb.(wi))
  done

(* Station state for the fast loop: the option-typed backoff and the
   boxed [ongoing] record of the reference become plain mutable ints
   ([-1] encodes absence), so a contention slot writes fields in place
   and allocates nothing.  The frame being transmitted is [current],
   exactly as in the reference (it never changes mid-flight). *)
type fstation = {
  f_id : int;
  f_queue : frame Queue.t;
  mutable f_current : frame option;
  mutable f_difs : int;
  mutable f_backoff : int;  (* -1: no backoff drawn yet *)
  mutable f_cw : int;
  mutable f_retries : int;
  mutable f_link : int;  (* -1: not transmitting *)
  mutable f_left : int;  (* tx slots remaining, meaningful when f_link >= 0 *)
  mutable f_corrupted : bool;
}

(* Byte-identity with [run_reference] rests on three invariants, argued
   in DESIGN.md Appendix E:

   1. RNG draw order.  The PRNG is consulted only for per-flow arrival
      jitter (same code, same order) and backoff draws inside the
      contention phase.  The reference walks all stations in ascending
      id; the fast path walks the contender bitset — the same subset in
      the same order, and stations outside it never draw.  Idle-slot
      skipping fires only when the contender set is empty, so no draw
      is skipped or reordered.

   2. Float operation order.  The reference sums interferer powers with
      a left fold over the active list in ascending station id and
      evaluates signal power, noise and thresholds through the same
      pure functions every slot.  The fast path replays the identical
      operation sequence on precomputed values: pow.(u).(v) is the very
      float [Phy.received_power] returns, summed in the same order,
      divided by the same (interference +. noise).

   3. Slot-skip soundness.  A slot is skipped only when no station is
      in DIFS/backoff (contender set empty).  In that state a slot's
      six phases reduce to: no arrivals (none due), no contention (and
      hence no RNG draws and no new transmissions), reception flags
      frozen (the active set is static between transmission events, the
      flags are monotone, and shrinking the interferer set only raises
      SINR), busy accounting over a static transmitting ∪ sensed set,
      and a uniform countdown of in-flight frames.  Jumping to the next
      arrival or completion and crediting busy time in bulk is
      therefore observationally identical. *)
let run ?(config = Dcf_config.default) ?(seed = 1L) ?prepared topo ~flows ~duration_us =
  Wsn_telemetry.Span.with_span "mac.run" @@ fun () ->
  List.iter (validate_flow topo) flows;
  let phy = Topology.phy topo in
  let n = Topology.n_nodes topo in
  let pre =
    match prepared with
    | Some p ->
      if p.p_topo != topo then
        invalid_arg "Sim.run: prepared kernel built for a different topology";
      p
    | None -> prepare topo
  in
  let flows_arr = Array.of_list flows in
  let n_flows = Array.length flows_arr in
  let rng = Pcg32.create seed in
  let slot_us = config.Dcf_config.slot_us in
  let total_slots = duration_us / slot_us in
  let difs_slots = Dcf_config.difs_slots config in
  let noise = Phy.noise_power phy in
  let rate_tbl = Phy.rates phy in
  let tx_slots_tbl = Dcf_config.tx_slots_table config rate_tbl in
  let n_links = Topology.n_links topo in
  let link_src = Array.init n_links (fun l -> (Topology.link topo l).Digraph.src) in
  let link_dst = Array.init n_links (fun l -> (Topology.link topo l).Digraph.dst) in
  let link_rate = Array.init n_links (fun l -> Topology.alone_rate topo l) in
  let link_sig = Array.init n_links (fun l -> pre.pow.(link_src.(l)).(link_dst.(l))) in
  let link_thresh = Array.init n_links (fun l -> Rate.snr_linear rate_tbl link_rate.(l)) in
  let link_tx_slots = Array.init n_links (fun l -> tx_slots_tbl.(link_rate.(l))) in
  (* Per-link silence set: every node the reference's [heard_from]
     makes defer while this link transmits.  N_cs(src), plus N_cs(dst)
     under RTS/CTS (the CTS silences the receiver's neighbourhood),
     never the transmitter itself. *)
  let silence =
    Array.init n_links (fun l ->
        let b = Bitset.copy pre.cs.(link_src.(l)) in
        if config.Dcf_config.rts_cts then begin
          Bitset.union_into ~dst:b pre.cs.(link_dst.(l));
          Bitset.remove b link_src.(l)
        end;
        b)
  in
  let stations =
    Array.init n (fun id ->
        {
          f_id = id;
          f_queue = Queue.create ();
          f_current = None;
          f_difs = 0;
          f_backoff = -1;
          f_cw = config.Dcf_config.cw_min;
          f_retries = 0;
          f_link = -1;
          f_left = 0;
          f_corrupted = false;
        })
  in
  (* Arrival events, with the reference's exact jitter draws. *)
  let arrivals = Event_queue.create () in
  Array.iteri
    (fun i spec ->
      if spec.demand_mbps > 0.0 then begin
        let interval_us = float_of_int config.Dcf_config.payload_bits /. spec.demand_mbps in
        let jitter = int_of_float (Pcg32.uniform rng 0.0 interval_us) in
        Event_queue.schedule arrivals ~time:jitter i
      end)
    flows_arr;
  let interval_us i = float_of_int config.Dcf_config.payload_bits /. flows_arr.(i).demand_mbps in
  (* Stats accumulators. *)
  let busy_slots = Array.make n 0 in
  let delivered_frames = Array.make n_flows 0 in
  let latencies = Array.init n_flows (fun _ -> Int_buf.create ()) in
  let now_ref = ref 0 in
  let dropped_frames = Array.make n_flows 0 in
  let frames_sent = ref 0 in
  let collisions = ref 0 in
  let skipped = ref 0 in
  (* Incrementally maintained channel state.  [sensed] holds every node
     some active transmission silences; [sensed_cnt] refcounts overlaps
     so removal is exact.  [contenders] holds stations with a head-of-
     line frame and no transmission in flight — the only stations that
     do per-slot work. *)
  let transmitting = Bitset.create n in
  let sensed = Bitset.create n in
  let sensed_cnt = Array.make n 0 in
  let contenders = Bitset.create n in
  let n_contenders = ref 0 in
  let n_active = ref 0 in
  let active_ids = Array.make (max n 1) 0 in
  let arrival_buf = Int_buf.create () in
  let set_contender st =
    if not (Bitset.mem contenders st.f_id) then begin
      Bitset.add contenders st.f_id;
      incr n_contenders
    end
  in
  let add_silence l =
    walk
      (fun v ->
        let c = sensed_cnt.(v) in
        if c = 0 then Bitset.add sensed v;
        sensed_cnt.(v) <- c + 1)
      silence.(l)
  in
  let remove_silence l =
    walk
      (fun v ->
        let c = sensed_cnt.(v) - 1 in
        sensed_cnt.(v) <- c;
        if c = 0 then Bitset.remove sensed v)
      silence.(l)
  in
  let enqueue_frame node frame =
    let st = stations.(node) in
    if st.f_current = None then begin
      (* current = None implies no transmission in flight. *)
      st.f_current <- Some frame;
      set_contender st
    end
    else if Queue.length st.f_queue >= config.Dcf_config.queue_limit then
      dropped_frames.(frame.flow) <- dropped_frames.(frame.flow) + 1
    else Queue.add frame st.f_queue
  in
  let next_frame st =
    st.f_current <- (if Queue.is_empty st.f_queue then None else Some (Queue.take st.f_queue));
    st.f_retries <- 0;
    st.f_cw <- config.Dcf_config.cw_min;
    st.f_backoff <- -1
  in
  let start_transmission st frame =
    let link = match frame.remaining with l :: _ -> l | [] -> assert false in
    st.f_link <- link;
    st.f_left <- link_tx_slots.(link);
    st.f_corrupted <- false;
    st.f_backoff <- -1;
    st.f_difs <- 0;
    incr frames_sent;
    Bitset.remove contenders st.f_id;
    decr n_contenders;
    Bitset.add transmitting st.f_id;
    incr n_active;
    add_silence link;
    Telemetry.observe m_active_stations (float_of_int !n_active)
  in
  let finish_transmission st =
    let link = st.f_link in
    st.f_link <- -1;
    Bitset.remove transmitting st.f_id;
    decr n_active;
    remove_silence link;
    Telemetry.observe m_active_stations (float_of_int !n_active);
    (if st.f_corrupted then begin
       incr collisions;
       st.f_retries <- st.f_retries + 1;
       if st.f_retries > config.Dcf_config.retry_limit then begin
         (match st.f_current with
          | Some f -> dropped_frames.(f.flow) <- dropped_frames.(f.flow) + 1
          | None -> assert false);
         next_frame st
       end
       else begin
         st.f_cw <- min (2 * st.f_cw) config.Dcf_config.cw_max;
         st.f_backoff <- -1
       end
     end
     else begin
       (match st.f_current with
        | None -> assert false
        | Some frame -> (
          match frame.remaining with
          | [] -> assert false
          | l :: rest ->
            if rest = [] then begin
              let fl = frame.flow in
              delivered_frames.(fl) <- delivered_frames.(fl) + 1;
              Int_buf.push latencies.(fl) (!now_ref - frame.born_us)
            end
            else enqueue_frame link_dst.(l) { frame with remaining = rest }));
       next_frame st
     end);
    if st.f_current <> None then set_contender st
  in
  let slot = ref 0 in
  while !slot < total_slots do
    (* Idle-slot skipping: with no contender, slots pass with no RNG
       draw and no state change beyond busy credit and the in-flight
       countdown — jump to the next arrival or completion. *)
    if !n_contenders = 0 then begin
      let next_arr =
        match Event_queue.next_time arrivals with
        | Some t -> t / slot_us
        | None -> total_slots
      in
      let target =
        if !n_active = 0 then next_arr
        else begin
          let min_left = ref max_int in
          walk
            (fun id ->
              let left = stations.(id).f_left in
              if left < !min_left then min_left := left)
            transmitting;
          min next_arr (!slot + !min_left - 1)
        end
      in
      let target = min target total_slots in
      if target > !slot then begin
        let k = target - !slot in
        if !n_active > 0 then begin
          walk_union
            (fun v -> busy_slots.(v) <- busy_slots.(v) + k)
            transmitting sensed;
          walk (fun id -> stations.(id).f_left <- stations.(id).f_left - k) transmitting
        end;
        skipped := !skipped + k;
        slot := target
      end
    end;
    if !slot < total_slots then begin
      let now_us = !slot * slot_us in
      now_ref := now_us + slot_us;
      (* 1. Arrivals due in this slot: drain first, then enqueue and
         reschedule, so a sub-slot inter-arrival interval lands in the
         next slot exactly as the reference's pop-then-iterate does. *)
      Int_buf.clear arrival_buf;
      Event_queue.drain_until arrivals ~time:(now_us + slot_us - 1) (fun _t i ->
          Int_buf.push arrival_buf i);
      for j = 0 to Int_buf.length arrival_buf - 1 do
        let i = Int_buf.get arrival_buf j in
        let spec = flows_arr.(i) in
        enqueue_frame link_src.(List.hd spec.links)
          { flow = i; remaining = spec.links; born_us = now_us };
        let next = now_us + int_of_float (interval_us i) in
        if next < duration_us then Event_queue.schedule arrivals ~time:next i
      done;
      (* 2+3. Contention: only contenders do work; the sensed-busy test
         is one bitset membership, live-updated by transmissions that
         start earlier in this very pass (matching the reference's lazy
         [sensed_busy]). *)
      walk
        (fun id ->
          let st = stations.(id) in
          if Bitset.mem sensed id then st.f_difs <- 0
          else if st.f_difs < difs_slots then st.f_difs <- st.f_difs + 1
          else if st.f_backoff < 0 then st.f_backoff <- Pcg32.next_below rng st.f_cw
          else if st.f_backoff = 0 then (
            match st.f_current with
            | Some frame -> start_transmission st frame
            | None -> assert false)
          else st.f_backoff <- st.f_backoff - 1)
        contenders;
      (* 4. Reception over the final active set: precomputed powers
         summed in the reference's ascending-id order. *)
      let na = ref 0 in
      walk
        (fun id ->
          active_ids.(!na) <- id;
          incr na)
        transmitting;
      let na = !na in
      for ai = 0 to na - 1 do
        let st = stations.(active_ids.(ai)) in
        let l = st.f_link in
        let rx = link_dst.(l) in
        let pow_rx = pre.pow in
        let interference = ref 0.0 in
        for aj = 0 to na - 1 do
          let oid = active_ids.(aj) in
          if oid <> st.f_id then interference := !interference +. pow_rx.(oid).(rx)
        done;
        let sinr = link_sig.(l) /. (!interference +. noise) in
        if stations.(rx).f_link >= 0 || sinr < link_thresh.(l) then st.f_corrupted <- true
      done;
      (* 5. Busy accounting: transmitting ∪ sensed, one bitset walk. *)
      walk_union (fun v -> busy_slots.(v) <- busy_slots.(v) + 1) transmitting sensed;
      (* 6. Advance transmissions. *)
      for ai = 0 to na - 1 do
        let st = stations.(active_ids.(ai)) in
        st.f_left <- st.f_left - 1;
        if st.f_left <= 0 then finish_transmission st
      done;
      incr slot
    end
  done;
  Telemetry.add m_slots total_slots;
  Telemetry.add m_frames_sent !frames_sent;
  Telemetry.add m_collisions !collisions;
  Telemetry.add m_slots_skipped !skipped;
  let seconds = float_of_int (total_slots * slot_us) /. 1e6 in
  let flow_stats =
    Array.mapi
      (fun i spec ->
        let lats = Int_buf.to_sorted_array latencies.(i) in
        let count = Array.length lats in
        let mean_latency_us =
          if count = 0 then nan
          else float_of_int (Array.fold_left ( + ) 0 lats) /. float_of_int count
        in
        let p95_latency_us =
          if count = 0 then nan else float_of_int lats.(min (count - 1) (95 * count / 100))
        in
        {
          offered_mbps = spec.demand_mbps;
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
    duration_us = total_slots * slot_us;
    node_idleness =
      Array.map
        (fun b -> 1.0 -. (float_of_int b /. float_of_int (max total_slots 1)))
        busy_slots;
    flows = flow_stats;
    frames_sent = !frames_sent;
    collisions = !collisions;
  }

(* Replications are embarrassingly parallel: [run] touches only
   run-local state, the immutable topology and prepared kernel, and the
   (domain-safe) telemetry registry, so seeds fan out across the global
   domain pool.  The kernel is built once and shared read-only.
   Results come back in seed order — identical to a sequential map. *)
let run_replications ?config ?prepared ~seeds topo ~flows ~duration_us =
  let prepared = match prepared with Some p -> p | None -> prepare topo in
  Wsn_parallel.Pool.map_list (Wsn_parallel.Pool.global ())
    (fun seed -> run ?config ~seed ~prepared topo ~flows ~duration_us)
    seeds
