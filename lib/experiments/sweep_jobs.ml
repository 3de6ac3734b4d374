module RS = Wsn_workload.Scenarios.Random_scenario
module Admission = Wsn_routing.Admission
module Metrics = Wsn_routing.Metrics
module Spec = Wsn_engine.Spec
module Pool = Wsn_engine.Pool

let metric_of_name name = List.find_opt (fun m -> String.equal (Metrics.name m) name) Metrics.all

(* --- fig3 payload codec --------------------------------------------- *)

(* One line per admission step, floats in exact [%h] so the payload —
   and hence the cache and the results file — is bit-deterministic and
   round-trips without loss. *)

let fig3_payload_of_run ~(spec : Spec.t) ~nodes ~links (run : Admission.run) =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "fig3 label=%s seed=%Ld nodes=%d links=%d\n" run.Admission.label
    spec.Spec.seed nodes links;
  List.iter
    (fun (s : Admission.step) ->
      Printf.bprintf buf
        "step index=%d source=%d target=%d demand=%h path=%s avail=%h admitted=%b\n"
        s.Admission.index s.Admission.source s.Admission.target s.Admission.demand_mbps
        (match s.Admission.path with
         | None -> "-"
         | Some p -> "[" ^ String.concat "," (List.map string_of_int p) ^ "]")
        s.Admission.available_mbps s.Admission.admitted)
    run.Admission.steps;
  (match run.Admission.first_failure with
   | None -> Buffer.add_string buf "first_failure=-\n"
   | Some i -> Printf.bprintf buf "first_failure=%d\n" i);
  Buffer.contents buf

let kv word key =
  match String.index_opt word '=' with
  | Some i when String.sub word 0 i = key ->
    Ok (String.sub word (i + 1) (String.length word - i - 1))
  | _ -> Error (Printf.sprintf "fig3 payload: expected %s=..., got %S" key word)

let parse_int key v =
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "fig3 payload: %s=%S is not an integer" key v)

let parse_float key v =
  match float_of_string_opt v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "fig3 payload: %s=%S is not a float" key v)

let parse_path = function
  | "-" -> Ok None
  | v ->
    let n = String.length v in
    if n < 2 || v.[0] <> '[' || v.[n - 1] <> ']' then
      Error (Printf.sprintf "fig3 payload: bad path %S" v)
    else if n = 2 then Ok (Some [])
    else begin
      let items = String.split_on_char ',' (String.sub v 1 (n - 2)) in
      let rec go acc = function
        | [] -> Ok (Some (List.rev acc))
        | x :: rest -> (
          match int_of_string_opt x with
          | Some i -> go (i :: acc) rest
          | None -> Error (Printf.sprintf "fig3 payload: bad path %S" v))
      in
      go [] items
    end

let fig3_of_payload payload =
  let ( let* ) = Result.bind in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' payload)
  in
  match lines with
  | header :: rest -> (
    let* label, nodes, links =
      match String.split_on_char ' ' header with
      | [ "fig3"; w_label; _w_seed; w_nodes; w_links ] ->
        let* label = kv w_label "label" in
        let* nodes = Result.bind (kv w_nodes "nodes") (parse_int "nodes") in
        let* links = Result.bind (kv w_links "links") (parse_int "links") in
        Ok (label, nodes, links)
      | _ -> Error (Printf.sprintf "fig3 payload: bad header %S" header)
    in
    let parse_step line =
      match String.split_on_char ' ' line with
      | [ "step"; w_index; w_source; w_target; w_demand; w_path; w_avail; w_admitted ] ->
        let* index = Result.bind (kv w_index "index") (parse_int "index") in
        let* source = Result.bind (kv w_source "source") (parse_int "source") in
        let* target = Result.bind (kv w_target "target") (parse_int "target") in
        let* demand_mbps = Result.bind (kv w_demand "demand") (parse_float "demand") in
        let* path = Result.bind (kv w_path "path") parse_path in
        let* available_mbps = Result.bind (kv w_avail "avail") (parse_float "avail") in
        let* admitted =
          Result.bind (kv w_admitted "admitted") (fun v ->
              match bool_of_string_opt v with
              | Some b -> Ok b
              | None -> Error (Printf.sprintf "fig3 payload: admitted=%S is not a bool" v))
        in
        Ok
          {
            Admission.index;
            source;
            target;
            demand_mbps;
            path;
            available_mbps;
            admitted;
          }
      | _ -> Error (Printf.sprintf "fig3 payload: bad step line %S" line)
    in
    let rec go steps = function
      | [] -> Error "fig3 payload: missing first_failure line"
      | [ last ] ->
        let* ff = kv last "first_failure" in
        let* first_failure =
          if ff = "-" then Ok None else Result.map Option.some (parse_int "first_failure" ff)
        in
        Ok (nodes, links, { Admission.label; steps = List.rev steps; first_failure })
      | line :: rest ->
        let* step = parse_step line in
        go (step :: steps) rest
    in
    go [] rest)
  | [] -> Error "fig3 payload: empty"

(* Admitted-flow count of a fig3 payload; 0 on parse failure. *)
let admitted_of_payload payload =
  match fig3_of_payload payload with
  | Ok (_, _, run) -> Fig3.admitted_count run
  | Error _ -> 0

(* --- job kinds ------------------------------------------------------ *)

let fig3_run (spec : Spec.t) =
  let metric =
    match metric_of_name spec.Spec.metric with
    | Some m -> m
    | None -> failwith (Printf.sprintf "fig3: unknown metric %S" spec.Spec.metric)
  in
  let scenario =
    RS.generate ~n_flows:spec.Spec.n_flows ~demand_mbps:spec.Spec.demand_mbps ~seed:spec.Spec.seed
      ()
  in
  let run = Fig3.compute_run ~scenario ~metric in
  fig3_payload_of_run ~spec
    ~nodes:(Wsn_net.Topology.n_nodes scenario.RS.topology)
    ~links:(Wsn_net.Topology.n_links scenario.RS.topology)
    run

let runner (spec : Spec.t) =
  match spec.Spec.kind with
  | "fig3" -> fig3_run spec
  | "fail" -> failwith "injected failure (kind=fail)"
  | "sleep" ->
    Unix.sleepf spec.Spec.demand_mbps;
    "slept\n"
  | "crash" ->
    Unix.kill (Unix.getpid ()) Sys.sigsegv;
    "unreachable\n"
  | kind -> failwith (Printf.sprintf "unknown job kind %S" kind)

(* --- sweep post-processing ------------------------------------------ *)

let table results =
  let seeds = ref [] in
  List.iter
    (fun ((spec : Spec.t), _) ->
      if not (List.mem spec.Spec.seed !seeds) then seeds := spec.Spec.seed :: !seeds)
    results;
  let blocks =
    List.map
      (fun seed ->
        let payloads =
          List.filter_map
            (fun ((spec : Spec.t), payload) ->
              if spec.Spec.seed = seed then Result.to_option (fig3_of_payload payload) else None)
            results
        in
        match payloads with
        | [] -> ""
        | (nodes, links, _) :: _ ->
          Fig3.render_header ~seed ~nodes ~links
          ^ String.concat "" (List.map (fun (_, _, run) -> Fig3.render_run run) payloads))
      (List.rev !seeds)
  in
  String.concat "\n" (List.filter (fun b -> b <> "") blocks)

let mean_admitted results =
  let totals = Hashtbl.create 3 in
  List.iter
    (fun ((spec : Spec.t), payload) ->
      let count, seeds = Option.value ~default:(0, 0) (Hashtbl.find_opt totals spec.Spec.metric) in
      Hashtbl.replace totals spec.Spec.metric (count + admitted_of_payload payload, seeds + 1))
    results;
  List.filter_map
    (fun m ->
      match Hashtbl.find_opt totals (Metrics.name m) with
      | Some (count, seeds) when seeds > 0 -> Some (m, float_of_int count /. float_of_int seeds)
      | _ -> None)
    Metrics.all

let sweep_seeds ?(workers = 0) ~seeds () =
  let specs =
    Wsn_engine.Grid.specs ~kind:"fig3" ~seeds ~metrics:(List.map Metrics.name Metrics.all)
      ~n_flows:8 ~demand_mbps:2.0
  in
  let results = Pool.run ~workers ~runner specs in
  mean_admitted
    (List.filter_map
       (fun (r : Pool.result) ->
         match r.Pool.outcome with Pool.Done p -> Some (r.Pool.spec, p) | Pool.Failed _ -> None)
       results)
