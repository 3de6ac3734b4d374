module Rate = Wsn_radio.Rate
module Phy = Wsn_radio.Phy
module Topology = Wsn_net.Topology
module Digraph = Wsn_graph.Digraph
module Telemetry = Wsn_telemetry.Registry

let m_builds = Telemetry.counter "kernel.builds"

let m_cache_hits = Telemetry.counter "kernel.cache_hits"

let m_cache_misses = Telemetry.counter "kernel.cache_misses"

let m_rate_evals = Telemetry.counter "kernel.rate_evals"

let m_interf_rows = Telemetry.counter "kernel.interf_rows"

let m_rate_rechecks = Telemetry.counter "kernel.rate_rechecks"

let m_inc_adds = Telemetry.counter "kernel.inc_adds"

let m_inc_rejects = Telemetry.counter "kernel.inc_rejects"

(* Memo of [max_vector] keyed by the set's bitset words. *)
module Cache = Hashtbl.Make (struct
  type t = int array

  let equal = ( = )

  let hash = Hashtbl.hash
end)

(* A cached vector: members ascending, rates aligned. *)
type entry = { e_links : int array; e_rates : int array }

type t = {
  topo : Topology.t;
  n_links : int;
  rates : Rate.table;
  noise : float;
  signal : float array;  (* received signal power at link l's receiver *)
  sens_ok : bool array array;  (* sens_ok.(l).(r): signal clears rate r's sensitivity *)
  snr_req : float array;  (* linear SNR requirement per rate *)
  tx : int array;  (* transmitter node of each link *)
  rx : int array;  (* receiver node of each link *)
  interf : float array Atomic.t array;
      (* interf.(i): lazily materialised row of powers at rx(j) from
         tx(i), [||] until first touched.  Rows are pure functions of
         the topology, so racing fills publish identical contents and
         compare-and-set keeps exactly one. *)
  hd : Bitset.t array;  (* hd.(l): links sharing an endpoint with l, incl. l *)
  alone : Rate.t list array;
  cache : entry option Cache.t;
  scratch : (string, exn) Hashtbl.t;
}

(* The full interference matrix is O(links²) floats — ~800 MB at a
   thousand nodes — while any one query only ever combines links of its
   universe.  Rows therefore materialise on first touch; the empty
   array is the unfilled sentinel (a real row has [n_links] ≥ 1
   entries whenever anything can be looked up). *)
let interf_row k i =
  let cell = k.interf.(i) in
  let row = Atomic.get cell in
  if Array.length row > 0 then row
  else begin
    let phy = Topology.phy k.topo in
    let row' =
      Array.init k.n_links (fun j ->
          if i = j then 0.0
          else Phy.received_power phy (Topology.node_distance k.topo k.tx.(i) k.rx.(j)))
    in
    if Atomic.compare_and_set cell row row' then begin
      Telemetry.incr m_interf_rows;
      row'
    end
    else Atomic.get cell
  end

let create topo =
  Telemetry.incr m_builds;
  let phy = Topology.phy topo in
  let rates = Phy.rates phy in
  let nl = Topology.n_links topo in
  let nr = Rate.n_rates rates in
  let tx = Array.init nl (fun l -> (Topology.link topo l).Digraph.src) in
  let rx = Array.init nl (fun l -> (Topology.link topo l).Digraph.dst) in
  let signal =
    Array.init nl (fun l -> Phy.received_power phy (Topology.link_distance topo l))
  in
  let sens_ok =
    Array.init nl (fun l -> Array.init nr (fun r -> signal.(l) >= Phy.sensitivity phy r))
  in
  let snr_req = Array.init nr (fun r -> Rate.snr_linear rates r) in
  let interf = Array.init nl (fun _ -> Atomic.make [||]) in
  (* Half-duplex adjacency from node→link incidence lists: O(links ·
     degree) instead of the all-pairs O(links²) endpoint scan. *)
  let incident = Array.make (Topology.n_nodes topo) [] in
  for m = nl - 1 downto 0 do
    incident.(tx.(m)) <- m :: incident.(tx.(m));
    if rx.(m) <> tx.(m) then incident.(rx.(m)) <- m :: incident.(rx.(m))
  done;
  let hd =
    Array.init nl (fun l ->
        let b = Bitset.create nl in
        List.iter (Bitset.add b) incident.(tx.(l));
        List.iter (Bitset.add b) incident.(rx.(l));
        b)
  in
  let alone =
    Array.init nl (fun l ->
        let best = Topology.alone_rate topo l in
        List.filter (fun r -> r >= best) (Rate.all rates))
  in
  {
    topo;
    n_links = nl;
    rates;
    noise = Phy.noise_power phy;
    signal;
    sens_ok;
    snr_req;
    tx;
    rx;
    interf;
    hd;
    alone;
    cache = Cache.create 1024;
    scratch = Hashtbl.create 8;
  }

let n_links k = k.n_links

let topology k = k.topo

let scratch k = k.scratch

(* --- worker-local views (parallel enumeration) --------------------- *)

(* The precomputed arrays are read-only after [create], so a view can
   share them; only the memo tables are per-view.  Worker domains each
   enumerate on their own view (Hashtbl is not domain-safe), and the
   coordinator folds the views' caches back afterwards. *)
let fork k = { k with cache = Cache.create 1024; scratch = Hashtbl.create 8 }

let merge ~into src =
  if not (into.topo == src.topo && into.n_links = src.n_links) then
    invalid_arg "Kernel.merge: views of different kernels";
  Cache.iter
    (fun key e -> if not (Cache.mem into.cache key) then Cache.add into.cache key e)
    src.cache

let rates k = k.rates

let alone_rates k l =
  if l < 0 || l >= k.n_links then invalid_arg "Kernel.alone_rates: link out of range";
  k.alone.(l)

(* Fastest rate of link [l] under total interference power
   [interference]; the same compares as [Phy.best_rate_under] on the
   same floats, so verdicts agree bit-for-bit with the naive model. *)
let best_rate k l ~interference =
  Telemetry.incr m_rate_evals;
  let snr = k.signal.(l) /. (interference +. k.noise) in
  let nr = Array.length k.snr_req in
  let ok = k.sens_ok.(l) in
  let rec scan r =
    if r >= nr then None else if snr >= k.snr_req.(r) && ok.(r) then Some r else scan (r + 1)
  in
  scan 0

(* A pair that cannot transmit together at any rates: the links share an
   endpoint, or one of them supports no rate under the other's
   interference alone.  For a pair the whole-set sum is that single
   term ([0.0 +. x = x]), so this is the verdict [compute_entry] reaches
   on the pair without touching the memo or allocating. *)
let hard_conflict k i j =
  if i < 0 || i >= k.n_links || j < 0 || j >= k.n_links then
    invalid_arg "Kernel.hard_conflict: link out of range";
  Bitset.mem k.hd.(i) j
  || best_rate k j ~interference:(interf_row k i).(j) = None
  || best_rate k i ~interference:(interf_row k j).(i) = None

(* --- whole-set queries (memoised) ---------------------------------- *)

(* Maximum rate vector of an ascending duplicate-free member array, or
   None.  Interference is summed in ascending link order — the same
   order the naive model uses for the enumerators' ascending sets. *)
let compute_entry k links =
  let n = Array.length links in
  let set = Bitset.create k.n_links in
  Array.iter (Bitset.add set) links;
  let half_duplex_ok =
    (* hd.(l) contains l, which is in [set]: a clean link sees exactly
       one hit. *)
    Array.for_all (fun l -> Bitset.inter_popcount k.hd.(l) set = 1) links
  in
  if not half_duplex_ok then None
  else begin
    let rows = Array.map (fun l -> interf_row k l) links in
    let rates = Array.make n 0 in
    let ok = ref true in
    let j = ref 0 in
    while !ok && !j < n do
      let l = links.(!j) in
      let isum = ref 0.0 in
      for i = 0 to n - 1 do
        if i <> !j then isum := !isum +. rows.(i).(l)
      done;
      (match best_rate k l ~interference:!isum with
       | Some r -> rates.(!j) <- r
       | None -> ok := false);
      incr j
    done;
    if !ok then Some { e_links = links; e_rates = rates } else None
  end

let rate_of_entry e l =
  (* Members are few; a linear scan beats binary search bookkeeping. *)
  let n = Array.length e.e_links in
  let rec go i =
    if i >= n then invalid_arg "Kernel: link absent from cached set" else if e.e_links.(i) = l then e.e_rates.(i) else go (i + 1)
  in
  go 0

let max_vector k set_list =
  match set_list with
  | [] -> Some [||]
  | _ ->
    let set = Bitset.create k.n_links in
    let dup = ref false in
    List.iter
      (fun l ->
        if l < 0 || l >= k.n_links then invalid_arg "Kernel.max_vector: link out of range";
        if Bitset.mem set l then dup := true else Bitset.add set l)
      set_list;
    (* A repeated link can never transmit concurrently with itself —
       the naive model rejects it via the half-duplex check. *)
    if !dup then None
    else begin
      let entry =
        match Cache.find_opt k.cache (Bitset.words set) with
        | Some e ->
          Telemetry.incr m_cache_hits;
          e
        | None ->
          Telemetry.incr m_cache_misses;
          let links = Array.of_list (Bitset.to_list set) in
          let e = compute_entry k links in
          Cache.add k.cache (Array.copy (Bitset.words set)) e;
          e
      in
      match entry with
      | None -> None
      | Some e -> Some (Array.of_list (List.map (rate_of_entry e) set_list))
    end

let feasible k assignment =
  match max_vector k (List.map fst assignment) with
  | None -> false
  | Some maxes ->
    (* Rate indices: 0 fastest; requested rate supported iff no faster
       than the maximum. *)
    let i = ref (-1) in
    List.for_all
      (fun (_, r) ->
        incr i;
        r >= maxes.(!i))
      assignment

(* --- incremental construction -------------------------------------- *)

module Inc = struct
  (* Undo frames store the exact previous sums and rates, so
     add-then-undo restores bit-identical state (no float drift from
     re-subtraction). *)
  type frame = { f_link : int; saved_isum : float array; saved_rate : int array }

  (* The member arrays hold [count] live entries and grow by doubling,
     so a state costs what its set holds, not the kernel's link count:
     pricing and enumeration start one state per root or call. *)
  type state = {
    k : t;
    set : Bitset.t;
    mutable members_ : int array;
    mutable isum : float array;
    mutable rate : int array;
    mutable count : int;
    mutable frames : frame list;
  }

  let initial_capacity = 8

  let start k =
    {
      k;
      set = Bitset.create k.n_links;
      members_ = Array.make initial_capacity 0;
      isum = Array.make initial_capacity 0.0;
      rate = Array.make initial_capacity 0;
      count = 0;
      frames = [];
    }

  (* Room for [n] members, keeping the live prefix. *)
  let reserve st n =
    let cap = Array.length st.members_ in
    if n > cap then begin
      let cap = max n (2 * cap) in
      let grow a zero =
        let a' = Array.make cap zero in
        Array.blit a 0 a' 0 st.count;
        a'
      in
      st.members_ <- grow st.members_ 0;
      st.isum <- grow st.isum 0.0;
      st.rate <- grow st.rate 0
    end

  let size st = st.count

  let member st p =
    if p < 0 || p >= st.count then invalid_arg "Kernel.Inc.member";
    st.members_.(p)

  let max_rate st p =
    if p < 0 || p >= st.count then invalid_arg "Kernel.Inc.max_rate";
    st.rate.(p)

  let members st = Array.to_list (Array.sub st.members_ 0 st.count)

  let add st l =
    let k = st.k in
    if l < 0 || l >= k.n_links then invalid_arg "Kernel.Inc.add: link out of range";
    if Bitset.mem st.set l || not (Bitset.inter_empty k.hd.(l) st.set) then begin
      Telemetry.incr m_inc_rejects;
      false
    end
    else begin
      (* Interference at the new link's receiver from the members, in
         insertion order. *)
      let il = ref 0.0 in
      for p = 0 to st.count - 1 do
        il := !il +. (interf_row k st.members_.(p)).(l)
      done;
      match best_rate k l ~interference:!il with
      | None ->
        Telemetry.incr m_inc_rejects;
        false
      | Some rl ->
        let row_l = interf_row k l in
        (* Each member gains one interference term; anti-monotonicity
           means only the members' rates need rechecking — never the
           pairings already validated. *)
        let saved_isum = Array.make st.count 0.0 in
        let saved_rate = Array.make st.count 0 in
        let ok = ref true in
        let p = ref 0 in
        while !ok && !p < st.count do
          let m = st.members_.(!p) in
          saved_isum.(!p) <- st.isum.(!p);
          saved_rate.(!p) <- st.rate.(!p);
          let s = st.isum.(!p) +. row_l.(m) in
          (* O(1) recheck before the full scan: growing interference
             can only slow a link down, so when the current maximum
             still clears its SNR requirement (sensitivity is
             interference-independent and already held) it is still
             the maximum — the same compare [best_rate] would reach at
             that index, so verdicts stay bit-identical. *)
          Telemetry.incr m_rate_rechecks;
          let snr = k.signal.(m) /. (s +. k.noise) in
          if snr >= k.snr_req.(st.rate.(!p)) then begin
            st.isum.(!p) <- s;
            incr p
          end
          else
            (match best_rate k m ~interference:s with
             | None -> ok := false
             | Some r ->
               st.isum.(!p) <- s;
               st.rate.(!p) <- r;
               incr p)
        done;
        if not !ok then begin
          for q = 0 to !p - 1 do
            st.isum.(q) <- saved_isum.(q);
            st.rate.(q) <- saved_rate.(q)
          done;
          Telemetry.incr m_inc_rejects;
          false
        end
        else begin
          reserve st (st.count + 1);
          st.members_.(st.count) <- l;
          st.isum.(st.count) <- !il;
          st.rate.(st.count) <- rl;
          st.count <- st.count + 1;
          Bitset.add st.set l;
          st.frames <- { f_link = l; saved_isum; saved_rate } :: st.frames;
          Telemetry.incr m_inc_adds;
          true
        end
    end

  (* Ascending-discipline add: when the caller inserts links in strictly
     ascending order (the DFS enumerators do), insertion order coincides
     with the canonical ascending order of the whole-set cache, so the
     attempt can consult — and on a miss populate — the same memo
     {!max_vector} uses.  The cached rates equal what the incremental
     updates would compute (same sums, same compares; the Inc/whole-set
     agreement property), so verdicts and state stay bit-identical to
     [add].  Not sound for arbitrary insertion orders: interference sums
     would accumulate in a different order than the cached entry's. *)
  let add_sorted st l =
    let k = st.k in
    if l < 0 || l >= k.n_links then invalid_arg "Kernel.Inc.add: link out of range";
    if st.count > 0 && l <= st.members_.(st.count - 1) then
      invalid_arg "Kernel.Inc.add_sorted: links must be added in ascending order";
    if Bitset.mem st.set l || not (Bitset.inter_empty k.hd.(l) st.set) then begin
      Telemetry.incr m_inc_rejects;
      false
    end
    else begin
      Bitset.add st.set l;
      match Cache.find_opt k.cache (Bitset.words st.set) with
      | Some None ->
        Telemetry.incr m_cache_hits;
        Bitset.remove st.set l;
        Telemetry.incr m_inc_rejects;
        false
      | Some (Some e) ->
        Telemetry.incr m_cache_hits;
        let n = Array.length e.e_links in
        let saved_isum = Array.sub st.isum 0 st.count in
        let saved_rate = Array.sub st.rate 0 st.count in
        (* Members ascending = insertion order here; reload rates from
           the entry and rebuild the interference sums by pure addition
           (ascending order, as both [compute_entry] and the incremental
           accumulation produce) — no SINR work. *)
        let rows = Array.map (fun l -> interf_row k l) e.e_links in
        reserve st n;
        for j = 0 to n - 1 do
          st.members_.(j) <- e.e_links.(j);
          st.rate.(j) <- e.e_rates.(j);
          let s = ref 0.0 in
          for i = 0 to n - 1 do
            if i <> j then s := !s +. rows.(i).(e.e_links.(j))
          done;
          st.isum.(j) <- !s
        done;
        st.count <- n;
        st.frames <- { f_link = l; saved_isum; saved_rate } :: st.frames;
        Telemetry.incr m_inc_adds;
        true
      | None ->
        Telemetry.incr m_cache_misses;
        Bitset.remove st.set l;
        let added = add st l in
        if added then
          Cache.add k.cache
            (Array.copy (Bitset.words st.set))
            (Some
               {
                 e_links = Array.sub st.members_ 0 st.count;
                 e_rates = Array.sub st.rate 0 st.count;
               })
        else begin
          (* Half-duplex was already clear, so the rejection means some
             link is starved of every rate — the whole set is infeasible,
             exactly what a cached [None] asserts. *)
          Bitset.add st.set l;
          Cache.add k.cache (Array.copy (Bitset.words st.set)) None;
          Bitset.remove st.set l
        end;
        added
    end

  let undo st =
    match st.frames with
    | [] -> invalid_arg "Kernel.Inc.undo: empty set"
    | f :: rest ->
      st.frames <- rest;
      st.count <- st.count - 1;
      Bitset.remove st.set f.f_link;
      for p = 0 to st.count - 1 do
        st.isum.(p) <- f.saved_isum.(p);
        st.rate.(p) <- f.saved_rate.(p)
      done
end
