type request =
  | Admit of { source : int; target : int; demand_mbps : float }
  | Query of { source : int; target : int; demand_mbps : float option }
  | Whatif of { source : int; target : int; queries : (int * float) list; exact : bool }
  | Prices of { source : int; target : int }
  | Release_flow of int
  | Release_nth of int
  | Snapshot
  | Stats
  | Ping
  | Shutdown

(* --- Request parsing ----------------------------------------------- *)

let field_int json key =
  match Json.member key json with
  | None -> Error (Printf.sprintf "missing field \"%s\"" key)
  | Some v -> (
    match Json.to_int v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "field \"%s\" must be an integer" key))

let field_float json key =
  match Json.member key json with
  | None -> Error (Printf.sprintf "missing field \"%s\"" key)
  | Some v -> (
    match Json.to_float v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "field \"%s\" must be a number" key))

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let parse_request line =
  match Json.parse line with
  | Error msg -> Error (Printf.sprintf "malformed JSON: %s" msg)
  | Ok json ->
    let id =
      match Json.member "id" json with Some v -> Json.to_int v | None -> None
    in
    let request =
      match Json.member "op" json with
      | None -> Error "missing field \"op\""
      | Some op -> (
        match Json.to_str op with
        | None -> Error "field \"op\" must be a string"
        | Some "admit" ->
          let* source = field_int json "source" in
          let* target = field_int json "target" in
          let* demand_mbps = field_float json "demand_mbps" in
          if not (Float.is_finite demand_mbps) || demand_mbps <= 0.0 then
            Error "field \"demand_mbps\" must be positive"
          else Ok (Admit { source; target; demand_mbps })
        | Some "query" ->
          let* source = field_int json "source" in
          let* target = field_int json "target" in
          let* demand_mbps =
            match Json.member "demand_mbps" json with
            | None -> Ok None
            | Some v -> (
              match Json.to_float v with
              | Some f when Float.is_finite f && f > 0.0 -> Ok (Some f)
              | Some _ -> Error "field \"demand_mbps\" must be positive"
              | None -> Error "field \"demand_mbps\" must be a number")
          in
          Ok (Query { source; target; demand_mbps })
        | Some "whatif" ->
          let* source = field_int json "source" in
          let* target = field_int json "target" in
          let* exact =
            match Json.member "exact" json with
            | None -> Ok false
            | Some (Json.Bool b) -> Ok b
            | Some _ -> Error "field \"exact\" must be a boolean"
          in
          let query_of j =
            let* flow = field_int j "flow" in
            let* factor = field_float j "factor" in
            if not (Float.is_finite factor) || factor < 0.0 then
              Error "field \"factor\" must be finite and non-negative"
            else Ok (flow, factor)
          in
          (match (Json.member "queries" json, Json.member "flow" json) with
           | Some _, Some _ -> Error "whatif takes \"queries\" or \"flow\"+\"factor\", not both"
           | Some qs, None -> (
             match Json.to_list qs with
             | None -> Error "field \"queries\" must be an array"
             | Some [] -> Error "field \"queries\" must not be empty"
             | Some items ->
               let rec gather acc = function
                 | [] -> Ok (List.rev acc)
                 | j :: rest -> (
                   match query_of j with Ok q -> gather (q :: acc) rest | Error _ as e -> e)
               in
               let* queries = gather [] items in
               Ok (Whatif { source; target; queries; exact }))
           | None, Some _ ->
             let* q = query_of json in
             Ok (Whatif { source; target; queries = [ q ]; exact })
           | None, None -> Error "whatif needs \"queries\" or \"flow\"+\"factor\"")
        | Some "prices" ->
          let* source = field_int json "source" in
          let* target = field_int json "target" in
          Ok (Prices { source; target })
        | Some "release" -> (
          match (Json.member "flow" json, Json.member "nth" json) with
          | Some _, Some _ -> Error "release takes \"flow\" or \"nth\", not both"
          | Some _, None ->
            let* flow = field_int json "flow" in
            Ok (Release_flow flow)
          | None, Some _ ->
            let* nth = field_int json "nth" in
            if nth < 0 then Error "field \"nth\" must be non-negative" else Ok (Release_nth nth)
          | None, None -> Error "release needs \"flow\" or \"nth\"")
        | Some "snapshot" -> Ok Snapshot
        | Some "stats" -> Ok Stats
        | Some "ping" -> Ok Ping
        | Some "shutdown" -> Ok Shutdown
        | Some op -> Error (Printf.sprintf "unknown op \"%s\"" op))
    in
    (match request with Ok r -> Ok (id, r) | Error _ as e -> e)

(* --- Response building --------------------------------------------- *)

(* All bandwidth figures cross the wire at 3 decimals; [mbps] is the
   matching quantisation, applied when printing.
   Rounding happens in two stages: snap to 6 decimals first, then to 3.
   Equation-6 optima are small-denominator rationals (demands are
   quarter-Mbit/s, rates a handful of values), so they frequently land
   {e exactly} on a 0.0005 boundary (e.g. 177/16 = 11.0625) where the
   warm and cold solvers' different pivot orders leave opposite-signed
   machine-precision noise — single-stage rounding would then report
   11.062 on one path and 11.063 on the other.  The 6-decimal snap
   absorbs that noise (optima are exact at 6 decimals; a value within
   noise of the {e composed} discontinuity x.xxx4995 would need a
   ~10^6 denominator, unreachable here), making the wire bytes
   mode-independent. *)
let mbps x =
  let r = Float.round (Float.round (x *. 1e6) /. 1e3) /. 1e3 in
  if r = 0.0 then 0.0 (* never [-0.] — "-0.000" on one side only would break identity *) else r

(* Bandwidth figures print through [mbps] at 3 decimals. *)
let mbps_field key x = (key, Json.Fixed (3, mbps x))

let path_field = function
  | None -> ("path", Json.Null)
  | Some links -> ("path", Json.List (List.map (fun l -> Json.Int l) links))

let response ~id op fields =
  Json.to_string
    (Json.Obj (("id", Json.Int id) :: ("ok", Json.Bool true) :: ("op", Json.Str op) :: fields))

let admit_response ~id ~admitted ~flow ~path ~available_mbps =
  response ~id "admit"
    ((("admitted", Json.Bool admitted)
     :: (match flow with Some f -> [ ("flow", Json.Int f) ] | None -> []))
    @ [ path_field path; mbps_field "available_mbps" available_mbps ])

let query_response ~id ~path ~available_mbps ~admissible =
  response ~id "query"
    ([ path_field path; mbps_field "available_mbps" available_mbps ]
    @ match admissible with Some b -> [ ("admissible", Json.Bool b) ] | None -> [])

let whatif_response ~id ~path ~base_mbps ~results =
  let result (flow, factor, available_mbps, feasible) =
    Json.Obj
      [
        ("flow", Json.Int flow);
        ("factor", Json.Fixed (3, factor));
        mbps_field "available_mbps" available_mbps;
        (* The delta is computed between the two {e quantised} figures,
           so it is itself bit-stable and consistent with the other
           fields. *)
        mbps_field "delta_mbps" (mbps available_mbps -. mbps base_mbps);
        ("feasible", Json.Bool feasible);
      ]
  in
  response ~id "whatif"
    [
      path_field path;
      mbps_field "base_mbps" base_mbps;
      ("results", Json.List (List.map result results));
    ]

let prices_response ~id ~path ~available_mbps ~sigma_mbps ~links ~throttle =
  let entry key value_key (k, v) = Json.Obj [ (key, Json.Int k); mbps_field value_key v ] in
  response ~id "prices"
    [
      path_field path;
      mbps_field "available_mbps" available_mbps;
      mbps_field "sigma_mbps" sigma_mbps;
      ("link_prices", Json.List (List.map (entry "link" "price") links));
      ("throttle", Json.List (List.map (entry "flow" "gain_mbps") throttle));
    ]

let release_response ~id ~flow ~remaining =
  response ~id "release" [ ("flow", Json.Int flow); ("remaining", Json.Int remaining) ]

let snapshot_response ~id ~flows =
  let flow (id, path, demand) =
    Json.Obj [ ("flow", Json.Int id); path_field (Some path); mbps_field "demand_mbps" demand ]
  in
  response ~id "snapshot"
    [
      ("flows", Json.List (List.map flow flows));
      mbps_field "total_demand_mbps" (List.fold_left (fun acc (_, _, d) -> acc +. d) 0.0 flows);
    ]

let stats_response ~id ~counts ~latency_ms =
  response ~id "stats"
    (List.map (fun (key, v) -> (key, Json.Int v)) counts
    @
    match latency_ms with
    | Some (p50, p99) -> [ ("p50_ms", Json.Fixed (3, p50)); ("p99_ms", Json.Fixed (3, p99)) ]
    | None -> [])

let ping_response ~id = response ~id "pong" []

let shutdown_response ~id = response ~id "shutdown" []

let error_response ~id reason =
  Json.to_string
    (Json.Obj [ ("id", Json.Int id); ("ok", Json.Bool false); ("error", Json.Str reason) ])
