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
  hard : Bytes.t array;
      (* hard.(i).[j]: memoised [hard_conflict i j] —
         [unknown], [compatible] or [conflict] — in a row materialised
         on first touch ([Bytes.empty] until then).  Shared by every
         view; see [hard_conflict] for why racing fills are sound. *)
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
  let hard = Array.make nl Bytes.empty in
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
    hard;
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
   [interference], or -1 when it supports none; the same compares as
   [Phy.best_rate_under] on the same floats, so verdicts agree
   bit-for-bit with the naive model. *)
let best_rate k l ~interference =
  Telemetry.incr m_rate_evals;
  let snr = k.signal.(l) /. (interference +. k.noise) in
  let nr = Array.length k.snr_req in
  let ok = k.sens_ok.(l) in
  let r = ref 0 in
  while !r < nr && not (snr >= k.snr_req.(!r) && ok.(!r)) do
    incr r
  done;
  if !r < nr then !r else -1

let unknown = '\000'

let compatible = '\001'

let conflict = '\002'

(* Row [i] of the hard-conflict memo, allocated on first touch. *)
let hard_row k i =
  let row = k.hard.(i) in
  if Bytes.length row > 0 then row
  else begin
    let row = Bytes.make k.n_links unknown in
    k.hard.(i) <- row;
    row
  end

(* A pair that cannot transmit together at any rates: the links share an
   endpoint, or one of them supports no rate under the other's
   interference alone.  For a pair the whole-set sum is that single
   term ([0.0 +. x = x]), so this is the verdict [compute_entry] reaches
   on the pair without touching the whole-set memo or allocating.

   The verdict is a pure function of the topology, memoised in both
   links' rows.  The rows are plain bytes shared by every view, so
   concurrent fills race: a domain may replace a row another domain
   just wrote into, or miss a byte written elsewhere.  Each byte only
   ever goes from [unknown] to the pair's one true verdict, so a racing
   reader sees either that verdict or [unknown] and recomputes it — a
   lost fill costs two rate evaluations, never a wrong answer. *)
let hard_conflict k i j =
  if i < 0 || i >= k.n_links || j < 0 || j >= k.n_links then
    invalid_arg "Kernel.hard_conflict: link out of range";
  let row = hard_row k i in
  let v = Bytes.get row j in
  if v <> unknown then v = conflict
  else begin
    let c =
      Bitset.mem k.hd.(i) j
      || best_rate k j ~interference:(interf_row k i).(j) < 0
      || best_rate k i ~interference:(interf_row k j).(i) < 0
    in
    let v = if c then conflict else compatible in
    Bytes.set row j v;
    Bytes.set (hard_row k j) i v;
    c
  end

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
      let r = best_rate k l ~interference:!isum in
      if r < 0 then ok := false else rates.(!j) <- r;
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
  (* The member arrays hold [count] live entries and grow by doubling,
     so a state costs what its set holds, not the kernel's link count.
     [rows.(p)] caches the interference row of the [p]-th member, read
     once per add instead of once per member per add.

     Undo restores the exact previous sums and rates (no float drift
     from re-subtraction) from one flat stack: the add of the [d]-th
     member pushes the [d - 1] earlier members' sums and rates, so undo
     pops [count - 1] entries.  Once the arrays have grown to the
     deepest set, no add, undo or cache reload allocates. *)
  type state = {
    k : t;
    set : Bitset.t;
    mutable members_ : int array;
    mutable rows : float array array;
    mutable isum : float array;
    mutable rate : int array;
    mutable count : int;
    mutable saved_isum : float array;
    mutable saved_rate : int array;
    mutable top : int;  (* live entries of the undo stack *)
  }

  let initial_capacity = 8

  (* The frames of a full initial set: 0 + 1 + ... + 7 entries. *)
  let initial_stack = initial_capacity * (initial_capacity - 1) / 2

  let start k =
    {
      k;
      set = Bitset.create k.n_links;
      members_ = Array.make initial_capacity 0;
      rows = Array.make initial_capacity [||];
      isum = Array.make initial_capacity 0.0;
      rate = Array.make initial_capacity 0;
      count = 0;
      saved_isum = Array.make initial_stack 0.0;
      saved_rate = Array.make initial_stack 0;
      top = 0;
    }

  (* [a] widened to [cap] entries, keeping its first [live]. *)
  let widen a cap zero live =
    let a' = Array.make cap zero in
    Array.blit a 0 a' 0 live;
    a'

  (* Room for [n] members, keeping the live prefix. *)
  let reserve st n =
    let cap = Array.length st.members_ in
    if n > cap then begin
      let cap = max n (2 * cap) in
      st.members_ <- widen st.members_ cap 0 st.count;
      st.rows <- widen st.rows cap [||] st.count;
      st.isum <- widen st.isum cap 0.0 st.count;
      st.rate <- widen st.rate cap 0 st.count
    end

  (* Room for one more frame of [count] entries on the undo stack. *)
  let reserve_frame st =
    let need = st.top + st.count in
    let cap = Array.length st.saved_isum in
    if need > cap then begin
      let cap = max need (2 * cap) in
      st.saved_isum <- widen st.saved_isum cap 0.0 st.top;
      st.saved_rate <- widen st.saved_rate cap 0 st.top
    end

  let size st = st.count

  let member st p =
    if p < 0 || p >= st.count then invalid_arg "Kernel.Inc.member";
    st.members_.(p)

  let max_rate st p =
    if p < 0 || p >= st.count then invalid_arg "Kernel.Inc.max_rate";
    st.rate.(p)

  let members st = List.init st.count (Array.get st.members_)

  let reject () =
    Telemetry.incr m_inc_rejects;
    false

  let add st l =
    let k = st.k in
    if l < 0 || l >= k.n_links then invalid_arg "Kernel.Inc.add: link out of range";
    (* [hd.(l)] contains [l]: this also rejects a link already in the set. *)
    if not (Bitset.inter_empty k.hd.(l) st.set) then reject ()
    else begin
      let n = st.count in
      (* Interference at the new link's receiver from the members, in
         insertion order. *)
      let il = ref 0.0 in
      for p = 0 to n - 1 do
        il := !il +. st.rows.(p).(l)
      done;
      let rl = best_rate k l ~interference:!il in
      if rl < 0 then reject ()
      else begin
        let row_l = interf_row k l in
        reserve_frame st;
        let base = st.top in
        let isum = st.isum and rate = st.rate in
        let saved_isum = st.saved_isum and saved_rate = st.saved_rate in
        (* Each member gains one interference term; anti-monotonicity
           means only the members' rates need rechecking — never the
           pairings already validated.  Each member's sum and rate are
           pushed before they change, so a rejection partway restores
           the members already updated. *)
        let ok = ref true in
        let p = ref 0 in
        while !ok && !p < n do
          let q = !p in
          let m = st.members_.(q) in
          saved_isum.(base + q) <- isum.(q);
          saved_rate.(base + q) <- rate.(q);
          let s = isum.(q) +. row_l.(m) in
          (* O(1) recheck before the full scan: growing interference
             can only slow a link down, so when the current maximum
             still clears its SNR requirement (sensitivity is
             interference-independent and already held) it is still
             the maximum — the same compare [best_rate] would reach at
             that index, so verdicts stay bit-identical. *)
          let snr = k.signal.(m) /. (s +. k.noise) in
          if snr >= k.snr_req.(rate.(q)) then begin
            isum.(q) <- s;
            incr p
          end
          else begin
            let r = best_rate k m ~interference:s in
            if r < 0 then ok := false
            else begin
              isum.(q) <- s;
              rate.(q) <- r;
              incr p
            end
          end
        done;
        Telemetry.add m_rate_rechecks (if !ok then n else !p + 1);
        if not !ok then begin
          for q = 0 to !p - 1 do
            isum.(q) <- saved_isum.(base + q);
            rate.(q) <- saved_rate.(base + q)
          done;
          reject ()
        end
        else begin
          st.top <- base + n;
          reserve st (n + 1);
          st.members_.(n) <- l;
          st.rows.(n) <- row_l;
          st.isum.(n) <- !il;
          st.rate.(n) <- rl;
          st.count <- n + 1;
          Bitset.add st.set l;
          Telemetry.incr m_inc_adds;
          true
        end
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
    if not (Bitset.inter_empty k.hd.(l) st.set) then reject ()
    else begin
      Bitset.add st.set l;
      match Cache.find_opt k.cache (Bitset.words st.set) with
      | Some None ->
        Telemetry.incr m_cache_hits;
        Bitset.remove st.set l;
        reject ()
      | Some (Some e) ->
        Telemetry.incr m_cache_hits;
        let n = Array.length e.e_links in
        reserve_frame st;
        for p = 0 to st.count - 1 do
          st.saved_isum.(st.top + p) <- st.isum.(p);
          st.saved_rate.(st.top + p) <- st.rate.(p)
        done;
        st.top <- st.top + st.count;
        (* Members ascending = insertion order here; reload rates from
           the entry and rebuild the interference sums by pure addition
           (ascending order, as both [compute_entry] and the incremental
           accumulation produce) — no SINR work. *)
        reserve st n;
        for j = 0 to n - 1 do
          st.members_.(j) <- e.e_links.(j);
          st.rows.(j) <- interf_row k e.e_links.(j);
          st.rate.(j) <- e.e_rates.(j)
        done;
        for j = 0 to n - 1 do
          let lj = st.members_.(j) in
          let s = ref 0.0 in
          for i = 0 to n - 1 do
            if i <> j then s := !s +. st.rows.(i).(lj)
          done;
          st.isum.(j) <- !s
        done;
        st.count <- n;
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
    if st.count = 0 then invalid_arg "Kernel.Inc.undo: empty set";
    let n = st.count - 1 in
    st.count <- n;
    Bitset.remove st.set st.members_.(n);
    let base = st.top - n in
    st.top <- base;
    for p = 0 to n - 1 do
      st.isum.(p) <- st.saved_isum.(base + p);
      st.rate.(p) <- st.saved_rate.(base + p)
    done
end
