module Topology = Wsn_net.Topology
module Model = Wsn_conflict.Model
module Idleness = Wsn_sched.Idleness
module Flow = Wsn_availbw.Flow
module Path_bandwidth = Wsn_availbw.Path_bandwidth
module Column_gen = Wsn_availbw.Column_gen
module Metrics = Wsn_routing.Metrics
module Router = Wsn_routing.Router
module Telemetry = Wsn_telemetry.Registry

let m_admits = Telemetry.counter "server.admits"

let m_rejects = Telemetry.counter "server.rejects"

let m_releases = Telemetry.counter "server.releases"

let m_queries = Telemetry.counter "server.queries"

let m_whatifs = Telemetry.counter "server.whatifs"

let m_prices = Telemetry.counter "server.prices"

let m_errors = Telemetry.counter "server.errors"

let m_memo_hits = Telemetry.counter "server.memo_hits"

let m_schedule_reuses = Telemetry.counter "server.schedule_reuses"

(* Same threshold as [Wsn_routing.Admission], applied to the unrounded
   optimum: a wire figure rounded up to the demand must not admit a
   flow the path cannot carry.  The margin also swallows the
   machine-precision noise between warm and cold solves, so both modes
   still decide alike. *)
let admission_eps = 1e-6

type mode = Warm | Cold

type t = {
  smode : mode;
  topo : Topology.t;
  model : Model.t;
  metric : Metrics.t;
  pricer : Column_gen.pricer;  (* Warm pricing tier; Cold ignores it *)
  pool : Column_gen.pool option;  (* [Some] iff Warm *)
  (* Warm transcript memo: (ordered background, path) ↦ availability.
     Keys are exact, so a hit replays a computation the cold mode would
     repeat verbatim. *)
  answers : (string, float) Hashtbl.t;
  (* Single-entry dual-view cache keyed like [answers]: the sensitivity
     of the last certified optimum, for whatif/prices requests.  Reads
     on it never mutate the warm master, so it stays valid until the
     flow set changes. *)
  mutable sens : (string * Column_gen.sensitivity) option;
  mutable flows : (int * Flow.t) list;  (* oldest admission first *)
  mutable next_flow_id : int;
  (* Warm only: node idleness under the background schedule, the one
     thing routing reads from that schedule. *)
  mutable cached_idleness : float array option;
  mutable counts : (string * int ref) list;  (* deterministic stats *)
}

let count t key =
  match List.assoc_opt key t.counts with
  | Some r -> r
  | None ->
    let r = ref 0 in
    t.counts <- t.counts @ [ (key, r) ];
    r

let bump t key = incr (count t key)

let create ?(metric = Metrics.Average_e2e_delay) ?(pricer = Column_gen.Exact) ~mode ~topo
    ~model () =
  {
    smode = mode;
    topo;
    model;
    metric;
    pricer;
    pool = (match mode with Warm -> Some (Column_gen.create_pool ()) | Cold -> None);
    answers = Hashtbl.create 64;
    sens = None;
    flows = [];
    next_flow_id = 0;
    cached_idleness = None;
    counts = [];
  }

let live_flows t = List.length t.flows

let background t = List.map snd t.flows

(* Node idleness under the background schedule: both modes call the
   identical pure functions on the identical flow list; Warm merely
   caches the table until the flow set changes, Cold rebuilds it from a
   fresh schedule per request.  [None] = admitted set infeasible, which
   admission control rules out — treated as an internal error
   upstream. *)
let idleness_table t =
  let build () =
    Option.map (Idleness.node_table t.topo)
      (Path_bandwidth.background_schedule t.model (background t))
  in
  match t.smode with
  | Cold -> build ()
  | Warm -> (
    match t.cached_idleness with
    | Some table ->
      Telemetry.incr m_schedule_reuses;
      Some table
    | None ->
      let table = build () in
      t.cached_idleness <- table;
      table)

let invalidate t =
  t.cached_idleness <- None;
  t.sens <- None

let memo_key background path =
  let buf = Buffer.create 128 in
  List.iter
    (fun (f : Flow.t) ->
      List.iter (fun l -> Printf.bprintf buf "%d," l) f.path;
      Printf.bprintf buf "@%h;" f.demand_mbps)
    background;
  Buffer.add_char buf '|';
  List.iter (fun l -> Printf.bprintf buf "%d," l) path;
  Buffer.contents buf

(* Availability of [path] under background [bg].  Warm goes
   memo → pooled warm column generation; Cold re-enumerates and solves
   from scratch.  Both optimise the same Equation-6 LP.  [bg] is a
   parameter (not always the live set) so exact what-if queries can
   price hypothetically scaled backgrounds through the same machinery
   — including the warm memo, where a repeated what-if is a hit. *)
let availability_of t ~bg ~path =
  match t.smode with
  | Cold -> (
    match Path_bandwidth.available t.model ~background:bg ~path with
    | Some r -> Some r.Path_bandwidth.bandwidth_mbps
    | None -> None)
  | Warm -> (
    let key = memo_key bg path in
    match Hashtbl.find_opt t.answers key with
    | Some v ->
      Telemetry.incr m_memo_hits;
      Some v
    | None -> (
      match
        Column_gen.available ~pricer:t.pricer ?pool:t.pool t.model ~background:bg ~path
      with
      | Some r ->
        Hashtbl.replace t.answers key r.Column_gen.bandwidth_mbps;
        Some r.Column_gen.bandwidth_mbps
      | None -> None))

let availability t path = availability_of t ~bg:(background t) ~path

(* Dual view of the Equation-6 optimum for [path] under [bg]: [None]
   when the optimum is uncertified (heuristic stall) or the background
   infeasible.  Warm keeps a single-entry cache and answers through the
   pooled warm master; Cold builds a throwaway exact view per request,
   consistent with its no-state-reuse contract. *)
let sens_for t ~bg ~path =
  match t.smode with
  | Cold ->
    snd (Column_gen.available_sens ~pricer:Column_gen.Exact t.model ~background:bg ~path)
  | Warm -> (
    let key = memo_key bg path in
    match t.sens with
    | Some (k, s) when String.equal k key -> Some s
    | _ ->
      let r, s =
        Column_gen.available_sens ~pricer:t.pricer ?pool:t.pool t.model ~background:bg ~path
      in
      (match r with
       | Some res -> Hashtbl.replace t.answers key res.Column_gen.bandwidth_mbps
       | None -> ());
      (match s with Some s -> t.sens <- Some (key, s) | None -> ());
      s)

(* Route then price: the paper's idleness-aware QoS routing (§4) over
   the current schedule's idleness table, then the Equation-6 LP on the
   chosen path. *)
let route_and_price t ~source ~target =
  match idleness_table t with
  | None -> Error "internal: admitted flow set became infeasible"
  | Some table ->
    let idleness = Idleness.table_link_idleness t.topo table in
    (match Router.find_path t.topo ~metric:t.metric ~idleness ~source ~target with
     | None -> Ok (None, 0.0)
     | Some path -> (
       match availability t path with
       | Some avail -> Ok (Some path, avail)
       | None -> Error "internal: availability LP infeasible"))

let check_node t name n =
  if n < 0 || n >= Topology.n_nodes t.topo then
    Error (Printf.sprintf "%s %d out of range [0, %d)" name n (Topology.n_nodes t.topo))
  else Ok ()

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let do_admit t ~id ~source ~target ~demand_mbps =
  let* () = check_node t "source" source in
  let* () = check_node t "target" target in
  if source = target then Error "source equals target"
  else
    let* path, avail = route_and_price t ~source ~target in
    let admitted = path <> None && avail >= demand_mbps -. admission_eps in
    if admitted then begin
      Telemetry.incr m_admits;
      bump t "admits";
      let flow_id = t.next_flow_id in
      t.next_flow_id <- flow_id + 1;
      let flow = Flow.make ~path:(Option.get path) ~demand_mbps in
      t.flows <- t.flows @ [ (flow_id, flow) ];
      invalidate t;
      Ok (Protocol.admit_response ~id ~admitted:true ~flow:(Some flow_id) ~path
            ~available_mbps:avail)
    end
    else begin
      Telemetry.incr m_rejects;
      bump t "rejects";
      Ok (Protocol.admit_response ~id ~admitted:false ~flow:None ~path ~available_mbps:avail)
    end

let do_query t ~id ~source ~target ~demand_mbps =
  let* () = check_node t "source" source in
  let* () = check_node t "target" target in
  if source = target then Error "source equals target"
  else
    let* path, avail = route_and_price t ~source ~target in
    Telemetry.incr m_queries;
    bump t "queries";
    let admissible =
      Option.map (fun d -> path <> None && avail >= d -. admission_eps) demand_mbps
    in
    Ok (Protocol.query_response ~id ~path ~available_mbps:avail ~admissible)

(* Position of a live flow id in the background list (admission
   order), which is how {!Column_gen}'s sensitivity layer indexes
   flows. *)
let flow_position t fid =
  let rec go i = function
    | [] -> None
    | (f, _) :: rest -> if f = fid then Some i else go (i + 1) rest
  in
  go 0 t.flows

let scaled_background bg pos factor =
  List.mapi
    (fun i (f : Flow.t) ->
      if i <> pos then f else Flow.make ~path:f.path ~demand_mbps:(f.demand_mbps *. factor))
    bg

let do_whatif t ~id ~source ~target ~queries ~exact =
  let* () = check_node t "source" source in
  let* () = check_node t "target" target in
  if source = target then Error "source equals target"
  else
    let rec positions acc = function
      | [] -> Ok (List.rev acc)
      | (fid, factor) :: rest -> (
        match flow_position t fid with
        | Some pos -> positions ((fid, pos, factor) :: acc) rest
        | None -> Error (Printf.sprintf "unknown flow %d" fid))
    in
    let* queries = positions [] queries in
    let* path, base = route_and_price t ~source ~target in
    Telemetry.incr m_whatifs;
    match path with
    | None ->
      (* No route: availability is 0 regardless of background, so every
         answer is the vacuous (0, feasible) — identically in both
         modes. *)
      Ok
        (Protocol.whatif_response ~id ~path:None ~base_mbps:0.0
           ~results:(List.map (fun (fid, _, factor) -> (fid, factor, 0.0, true)) queries))
    | Some p ->
      let bg = background t in
      let exact_answer pos factor =
        match availability_of t ~bg:(scaled_background bg pos factor) ~path:p with
        | Some v -> (v, true)
        | None -> (0.0, false)
      in
      let answer =
        if exact || t.smode = Cold then fun pos factor -> exact_answer pos factor
        else
          (* Predicted path: basis reuse on the cached dual view.  An
             uncertified optimum has no view — fall back to exact
             re-solves rather than fail the request. *)
          match sens_for t ~bg ~path:p with
          | Some s ->
            fun pos factor ->
              let w = Column_gen.whatif_scale s pos ~factor in
              (w.Column_gen.w_mbps, w.Column_gen.w_feasible)
          | None -> fun pos factor -> exact_answer pos factor
      in
      let results =
        List.map
          (fun (fid, pos, factor) ->
            let v, feasible = answer pos factor in
            (fid, factor, v, feasible))
          queries
      in
      Ok (Protocol.whatif_response ~id ~path:(Some p) ~base_mbps:base ~results)

let do_prices t ~id ~source ~target =
  let* () = check_node t "source" source in
  let* () = check_node t "target" target in
  if source = target then Error "source equals target"
  else
    let* path, avail = route_and_price t ~source ~target in
    match path with
    | None -> Error "no route between source and target"
    | Some p -> (
      match sens_for t ~bg:(background t) ~path:p with
      | None -> Error "congestion prices unavailable (optimum not certified)"
      | Some s ->
        Telemetry.incr m_prices;
        let universe = Column_gen.link_prices s in
        let links =
          List.map
            (fun l -> (l, Option.value (List.assoc_opt l universe) ~default:0.0))
            p
        in
        let fid_of pos = fst (List.nth t.flows pos) in
        let throttle =
          List.map (fun (pos, gain) -> (fid_of pos, gain)) (Column_gen.throttle_ranking s)
        in
        Ok
          (Protocol.prices_response ~id ~path:(Some p) ~available_mbps:avail
             ~sigma_mbps:(Column_gen.sigma_price s) ~links ~throttle))

let remove_flow t flow_id =
  match List.assoc_opt flow_id t.flows with
  | None -> None
  | Some _ ->
    t.flows <- List.filter (fun (fid, _) -> fid <> flow_id) t.flows;
    invalidate t;
    Telemetry.incr m_releases;
    Some ()

let do_release t ~id which =
  let flow_id =
    match which with
    | `Flow fid -> Ok fid
    | `Nth k -> (
      match List.nth_opt t.flows k with
      | Some (fid, _) -> Ok fid
      | None -> Error (Printf.sprintf "no %d-th live flow (%d live)" k (List.length t.flows)))
  in
  let* flow_id = flow_id in
  match remove_flow t flow_id with
  | None -> Error (Printf.sprintf "unknown flow %d" flow_id)
  | Some () ->
    bump t "releases";
    Ok (Protocol.release_response ~id ~flow:flow_id ~remaining:(List.length t.flows))

let do_snapshot t ~id =
  let flows = List.map (fun (fid, (f : Flow.t)) -> (fid, f.path, f.demand_mbps)) t.flows in
  Ok (Protocol.snapshot_response ~id ~flows)

let do_stats t ~id =
  (* Fixed key order; latency only when telemetry is live. *)
  let counts =
    List.map (fun k -> (k, !(count t k))) [ "admits"; "rejects"; "queries"; "releases"; "errors" ]
    @ [ ("live_flows", List.length t.flows);
        ("pool_columns", match t.pool with Some p -> Column_gen.pool_size p | None -> 0) ]
  in
  let latency_ms =
    if Telemetry.is_enabled () then begin
      let h = Telemetry.span "server.request" in
      if Telemetry.histogram_count h > 0 then
        Some
          ( Telemetry.histogram_percentile h 50.0 *. 1000.0,
            Telemetry.histogram_percentile h 99.0 *. 1000.0 )
      else None
    end
    else None
  in
  Ok (Protocol.stats_response ~id ~counts ~latency_ms)

let handle t ~id request =
  let result =
    match request with
    | Protocol.Admit { source; target; demand_mbps } -> do_admit t ~id ~source ~target ~demand_mbps
    | Protocol.Query { source; target; demand_mbps } -> do_query t ~id ~source ~target ~demand_mbps
    | Protocol.Whatif { source; target; queries; exact } ->
      do_whatif t ~id ~source ~target ~queries ~exact
    | Protocol.Prices { source; target } -> do_prices t ~id ~source ~target
    | Protocol.Release_flow fid -> do_release t ~id (`Flow fid)
    | Protocol.Release_nth k -> do_release t ~id (`Nth k)
    | Protocol.Snapshot -> do_snapshot t ~id
    | Protocol.Stats -> do_stats t ~id
    | Protocol.Ping -> Ok (Protocol.ping_response ~id)
    | Protocol.Shutdown -> Ok (Protocol.shutdown_response ~id)
  in
  match result with
  | Ok line -> line
  | Error reason ->
    Telemetry.incr m_errors;
    bump t "errors";
    Protocol.error_response ~id reason

let reject_line t ~seq reason =
  Telemetry.incr m_errors;
  bump t "errors";
  Protocol.error_response ~id:seq reason

let handle_line t ~seq line =
  Wsn_telemetry.Span.with_span "server.request" (fun () ->
      match Protocol.parse_request line with
      | Error reason -> (reject_line t ~seq reason, false)
      | Ok (id, request) ->
        let id = Option.value id ~default:seq in
        (handle t ~id request, request = Protocol.Shutdown))
