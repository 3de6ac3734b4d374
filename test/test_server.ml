(* Tests for Wsn_admission: the JSON layer, protocol parsing, session
   semantics on a small topology, the stdio transport over pipes, and
   the PR's core property — any interleaving of admit/release/query
   deltas answered by the warm incremental path is byte-identical to
   the cold full-recompute reference on the same request stream. *)

module Json = Wsn_admission.Json
module Protocol = Wsn_admission.Protocol
module Session = Wsn_admission.Session
module Server = Wsn_admission.Server
module Trace = Wsn_workload.Scenarios.Admission_trace
module Generator = Wsn_net.Generator
module Model = Wsn_conflict.Model
module Pcg32 = Wsn_prng.Pcg32

let check = Alcotest.check

(* A small connected topology keeps per-case cost low enough for
   QCheck while still exercising multihop routes. *)
let small_config =
  { Generator.n_nodes = 10; width_m = 220.0; height_m = 260.0; max_placement_attempts = 1000 }

let small_world seed =
  let topo = Generator.connected_topology (Pcg32.create seed) small_config in
  (topo, Model.physical topo)

let make_session ?metric ?pricer ?shards mode seed =
  let topo, model = small_world seed in
  Session.create ?metric ?pricer ?shards ~mode ~topo ~model ()

(* --- json ----------------------------------------------------------- *)

let json_roundtrip () =
  let cases =
    [
      {|{"op":"admit","source":3,"target":17,"demand_mbps":1.5}|};
      {|{"a":[1,2.25,-3e2],"b":true,"c":null,"d":"x\"y\\z","e":{}}|};
      {|[]|};
      {|"Aé€"|};
    ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error msg -> Alcotest.failf "parse %s: %s" s msg
      | Ok v -> (
        (* Round-trip through the printer re-parses to the same value. *)
        match Json.parse (Json.to_string v) with
        | Ok v' -> check Alcotest.bool ("round-trip " ^ s) true (v = v')
        | Error msg -> Alcotest.failf "re-parse %s: %s" (Json.to_string v) msg))
    cases;
  check Alcotest.bool "surrogate pair" true
    (Json.parse {|"😀"|} = Ok (Json.Str "\xf0\x9f\x98\x80"));
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted malformed %s" bad
      | Error _ -> ())
    [ "{"; "[1,]"; {|{"a":}|}; "tru"; "1.2.3"; {|{"a":1} x|}; {|"unterminated|} ]

let json_accessors () =
  let v = Result.get_ok (Json.parse {|{"n":4,"f":2.5,"s":"hi","l":[1,2]}|}) in
  check Alcotest.(option int) "int member" (Some 4) Option.(bind (Json.member "n" v) Json.to_int);
  check Alcotest.bool "float member" true (Option.bind (Json.member "f" v) Json.to_float = Some 2.5);
  check Alcotest.bool "non-integral int is None" true
    (Option.bind (Json.member "f" v) Json.to_int = None);
  check Alcotest.(option string) "str member" (Some "hi")
    Option.(bind (Json.member "s" v) Json.to_str);
  check Alcotest.bool "missing member" true (Json.member "zzz" v = None)

(* --- protocol ------------------------------------------------------- *)

let protocol_parse () =
  (match Protocol.parse_request {|{"op":"admit","source":1,"target":2,"demand_mbps":0.5,"id":9}|} with
   | Ok (Some 9, Protocol.Admit { source = 1; target = 2; demand_mbps = 0.5 }) -> ()
   | _ -> Alcotest.fail "admit parse");
  (match Protocol.parse_request {|{"op":"query","source":1,"target":2}|} with
   | Ok (None, Protocol.Query { demand_mbps = None; _ }) -> ()
   | _ -> Alcotest.fail "query parse");
  (match Protocol.parse_request {|{"op":"release","nth":0}|} with
   | Ok (None, Protocol.Release_nth 0) -> ()
   | _ -> Alcotest.fail "release nth parse");
  List.iter
    (fun bad ->
      match Protocol.parse_request bad with
      | Ok _ -> Alcotest.failf "accepted %s" bad
      | Error _ -> ())
    [
      {|{"op":"admit","source":1,"target":2}|} (* missing demand *);
      {|{"op":"admit","source":1,"target":2,"demand_mbps":-1}|};
      {|{"op":"admit","source":1,"target":2,"demand_mbps":-1e999}|};
      {|{"op":"query","source":1,"target":2,"demand_mbps":0}|};
      {|{"op":"release"}|};
      {|{"op":"release","flow":1,"nth":2}|};
      {|{"op":"warp"}|};
      {|{"source":1}|};
      "not json at all";
    ];
  (* 1e999 parses to +inf, which a [<= 0] test alone lets through. *)
  List.iter
    (fun line ->
      match Protocol.parse_request line with
      | Ok _ -> Alcotest.failf "accepted %s" line
      | Error msg -> check Alcotest.string line {|field "demand_mbps" must be positive|} msg)
    [
      {|{"op":"admit","source":1,"target":2,"demand_mbps":1e999}|};
      {|{"op":"query","source":1,"target":2,"demand_mbps":1e999}|};
    ]

let protocol_quantisation () =
  (* Machine-noise around an exact 0.0005 boundary must collapse to one
     wire value, and a tiny negative optimum must not print as -0. *)
  check (Alcotest.float 0.0) "boundary from below" 11.063 (Protocol.mbps 11.062499999999998);
  check (Alcotest.float 0.0) "boundary exact" 11.063 (Protocol.mbps 11.0625);
  check (Alcotest.float 0.0) "boundary from above" 11.063 (Protocol.mbps 11.062500000000002);
  check (Alcotest.float 0.0) "negative zero normalised" 0.0 (Protocol.mbps (-1e-13));
  check Alcotest.bool "no minus sign" false
    (String.contains (Printf.sprintf "%.3f" (Protocol.mbps (-1e-13))) '-');
  check (Alcotest.float 0.0) "plain value" 2.5 (Protocol.mbps 2.5)

(* --- session semantics ---------------------------------------------- *)

let session_lifecycle () =
  let s = make_session Session.Warm 7L in
  let response, stop = Session.handle_line s ~seq:1 {|{"op":"ping"}|} in
  check Alcotest.string "ping" {|{"id":1,"ok":true,"op":"pong"}|} response;
  check Alcotest.bool "ping does not stop" false stop;
  (* Admit something modest; the empty network must accept it. *)
  let response, _ =
    Session.handle_line s ~seq:2 {|{"op":"admit","source":0,"target":1,"demand_mbps":0.25}|}
  in
  let v = Result.get_ok (Json.parse response) in
  check Alcotest.bool "admitted" true (Json.member "admitted" v = Some (Json.Bool true));
  check Alcotest.int "one live flow" 1 (Session.live_flows s);
  check Alcotest.int "background size" 1 (List.length (Session.background s));
  (* Snapshot shows it; releasing it empties the session. *)
  let snap, _ = Session.handle_line s ~seq:3 {|{"op":"snapshot"}|} in
  let sv = Result.get_ok (Json.parse snap) in
  (match Option.bind (Json.member "flows" sv) Json.to_list with
   | Some [ _ ] -> ()
   | _ -> Alcotest.fail "snapshot lists one flow");
  let rel, _ = Session.handle_line s ~seq:4 {|{"op":"release","nth":0}|} in
  check Alcotest.bool "release ok" true
    (Json.member "ok" (Result.get_ok (Json.parse rel)) = Some (Json.Bool true));
  check Alcotest.int "empty again" 0 (Session.live_flows s);
  (* Errors are responses, not exceptions; ids echo the sequence. *)
  List.iter
    (fun line ->
      let response, stop = Session.handle_line s ~seq:9 line in
      let v = Result.get_ok (Json.parse response) in
      check Alcotest.bool ("not ok: " ^ line) true (Json.member "ok" v = Some (Json.Bool false));
      check Alcotest.bool "no stop on error" false stop)
    [
      {|{"op":"release","flow":42}|};
      {|{"op":"release","nth":5}|};
      {|{"op":"query","source":0,"target":99}|};
      {|{"op":"query","source":3,"target":3}|};
      "garbage";
    ];
  let bye, stop = Session.handle_line s ~seq:10 {|{"op":"shutdown"}|} in
  check Alcotest.bool "shutdown ok" true
    (Json.member "ok" (Result.get_ok (Json.parse bye)) = Some (Json.Bool true));
  check Alcotest.bool "shutdown stops" true stop

let session_id_echo () =
  let s = make_session Session.Cold 7L in
  let response, _ = Session.handle_line s ~seq:5 {|{"op":"ping","id":77}|} in
  check Alcotest.string "explicit id wins" {|{"id":77,"ok":true,"op":"pong"}|} response

(* The optimum of the two-link path 0 -> 3 on topology 1 is 36/7 =
   5.142857... Mbps, printed as 5.143.  A demand of exactly the printed
   figure exceeds what the path carries: admitting it left a flow set
   no schedule serves, and every later request failed.  Both modes
   must reject it and keep serving. *)
let admission_decided_unrounded () =
  let topo, model = small_world 1L in
  let field name line = Json.member name (Result.get_ok (Json.parse line)) in
  List.iter
    (fun mode ->
      let s = Session.create ~mode ~topo ~model () in
      let query, _ = Session.handle_line s ~seq:1 {|{"op":"query","source":0,"target":3}|} in
      let path =
        match Option.bind (field "path" query) Json.to_list with
        | Some links -> List.filter_map Json.to_int links
        | None -> Alcotest.fail "0 -> 3 must route"
      in
      let raw =
        match Wsn_availbw.Column_gen.available model ~background:[] ~path with
        | Some r -> r.Wsn_availbw.Column_gen.bandwidth_mbps
        | None -> Alcotest.fail "an empty network is schedulable"
      in
      check Alcotest.string "wire figure rounds up" "5.143" (Printf.sprintf "%.3f" raw);
      check Alcotest.bool "raw optimum below the demand" true (raw < 5.143 -. 1e-6);
      let admit, _ =
        Session.handle_line s ~seq:2
          {|{"op":"admit","source":0,"target":3,"demand_mbps":5.143}|}
      in
      check Alcotest.bool "rejected" true (field "admitted" admit = Some (Json.Bool false));
      check Alcotest.int "nothing admitted" 0 (Session.live_flows s);
      let after, _ =
        Session.handle_line s ~seq:3
          {|{"op":"query","source":0,"target":3,"demand_mbps":5.143}|}
      in
      check Alcotest.bool "later requests succeed" true (field "ok" after = Some (Json.Bool true));
      check Alcotest.bool "not admissible" true
        (field "admissible" after = Some (Json.Bool false)))
    [ Session.Warm; Session.Cold ]

(* --- stdio transport over pipes -------------------------------------- *)

let stdio_transport () =
  let requests =
    [
      {|{"op":"admit","source":0,"target":1,"demand_mbps":0.25}|};
      {|{"op":"query","source":0,"target":1,"demand_mbps":0.25}|};
      {|{"op":"release","nth":0}|};
    ]
  in
  (* Small writes fit comfortably in pipe buffers, so a single thread
     can stage all input, run the server to EOF, then read the output. *)
  let in_r, in_w = Unix.pipe ~cloexec:false () in
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let payload = String.concat "\n" requests ^ "\n" in
  let written = Unix.write_substring in_w payload 0 (String.length payload) in
  check Alcotest.int "staged all input" (String.length payload) written;
  Unix.close in_w;
  let session = make_session Session.Warm 7L in
  Server.run_stdio ~session ~batch:2 in_r out_w;
  Unix.close in_r;
  Unix.close out_w;
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read out_r chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
  in
  drain ();
  Unix.close out_r;
  let lines = String.split_on_char '\n' (Buffer.contents buf) |> List.filter (( <> ) "") in
  check Alcotest.int "one response per request" (List.length requests) (List.length lines);
  List.iteri
    (fun i line ->
      let v = Result.get_ok (Json.parse line) in
      check Alcotest.bool "ok" true (Json.member "ok" v = Some (Json.Bool true));
      check Alcotest.bool "sequential id" true (Json.member "id" v = Some (Json.Num (float_of_int (i + 1)))))
    lines

(* --- traces ---------------------------------------------------------- *)

let trace_deterministic () =
  let t1 = Trace.generate ~n_ops:40 ~seed:5L () in
  let t2 = Trace.generate ~n_ops:40 ~seed:5L () in
  check Alcotest.bool "same seed, same trace" true (t1 = t2);
  let t3 = Trace.generate ~n_ops:40 ~seed:6L () in
  check Alcotest.bool "different seed, different trace" false (t1 = t3);
  check Alcotest.int "requested length" 40 (List.length t1);
  (* Every emitted line parses back as a protocol request. *)
  List.iter
    (fun line ->
      match Protocol.parse_request line with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "trace line %s: %s" line msg)
    (Trace.to_request_lines t1)

(* --- the core property: warm = cold on any interleaving -------------- *)

let run_transcript ?pricer ?shards mode ~topo_seed lines =
  let s = make_session ?pricer ?shards mode topo_seed in
  List.mapi (fun i line -> fst (Session.handle_line s ~seq:(i + 1) line)) lines

let qcheck_warm_equals_cold =
  QCheck.Test.make ~name:"warm session transcript = cold reference on random interleavings"
    ~count:15
    QCheck.(pair (int_bound 100_000) (int_bound 3))
    (fun (seed, topo_pick) ->
      let topo_seed = Int64.of_int (7 + topo_pick) in
      let trace =
        Trace.generate ~n_nodes:small_config.Generator.n_nodes ~n_ops:25
          ~seed:(Int64.of_int seed) ()
      in
      let lines = Trace.to_request_lines trace in
      let warm = run_transcript Session.Warm ~topo_seed lines in
      let cold = run_transcript Session.Cold ~topo_seed lines in
      if warm <> cold then
        QCheck.Test.fail_reportf "transcripts diverge:@.%s@.vs@.%s"
          (String.concat "\n" warm) (String.concat "\n" cold)
      else true)

(* Heuristic-first pricing behind the wire: at this topology's scale
   the auto tier always ends with the exact fallback certifying the
   optimum, so — after wire quantisation — an auto session's transcript
   is byte-identical to the exact session's on any interleaving.  Runs
   sharded to cover the fan-out path too. *)
let qcheck_auto_session_equals_exact =
  QCheck.Test.make ~name:"auto-pricer session transcript = exact session transcript"
    ~count:10
    QCheck.(pair (int_bound 100_000) (int_bound 3))
    (fun (seed, topo_pick) ->
      let topo_seed = Int64.of_int (7 + topo_pick) in
      let trace =
        Trace.generate ~n_nodes:small_config.Generator.n_nodes ~n_ops:20
          ~seed:(Int64.of_int seed) ()
      in
      let lines = Trace.to_request_lines trace in
      let exact = run_transcript Session.Warm ~topo_seed lines in
      let auto =
        run_transcript ~pricer:Wsn_availbw.Column_gen.Auto ~shards:2 Session.Warm ~topo_seed
          lines
      in
      if auto <> exact then
        QCheck.Test.fail_reportf "transcripts diverge:@.%s@.vs@.%s"
          (String.concat "\n" auto) (String.concat "\n" exact)
      else true)

(* --- whatif / prices ------------------------------------------------- *)

let whatif_parse () =
  (match Protocol.parse_request {|{"op":"whatif","source":1,"target":2,"flow":0,"factor":1.5}|} with
   | Ok (None, Protocol.Whatif { source = 1; target = 2; queries = [ (0, 1.5) ]; exact = false })
     -> ()
   | _ -> Alcotest.fail "single whatif parse");
  (match
     Protocol.parse_request
       {|{"op":"whatif","source":1,"target":2,"queries":[{"flow":0,"factor":0.5},{"flow":3,"factor":2}],"exact":true}|}
   with
   | Ok (None, Protocol.Whatif { queries = [ (0, 0.5); (3, 2.0) ]; exact = true; _ }) -> ()
   | _ -> Alcotest.fail "batched whatif parse");
  (match Protocol.parse_request {|{"op":"whatif","source":1,"target":2,"flow":0,"factor":0}|} with
   | Ok (None, Protocol.Whatif { queries = [ (0, 0.0) ]; _ }) -> ()
   | _ -> Alcotest.fail "factor 0 (removal preview) parses");
  (match Protocol.parse_request {|{"op":"prices","source":4,"target":5,"id":3}|} with
   | Ok (Some 3, Protocol.Prices { source = 4; target = 5 }) -> ()
   | _ -> Alcotest.fail "prices parse");
  List.iter
    (fun bad ->
      match Protocol.parse_request bad with
      | Ok _ -> Alcotest.failf "accepted %s" bad
      | Error _ -> ())
    [
      {|{"op":"whatif","source":1,"target":2}|} (* neither form *);
      {|{"op":"whatif","source":1,"target":2,"flow":0}|} (* missing factor *);
      {|{"op":"whatif","source":1,"target":2,"flow":0,"factor":-1}|};
      {|{"op":"whatif","source":1,"target":2,"flow":0,"factor":1,"queries":[]}|} (* both forms *);
      {|{"op":"whatif","source":1,"target":2,"queries":[]}|};
      {|{"op":"whatif","source":1,"target":2,"queries":[{"flow":0}]}|};
      {|{"op":"whatif","source":1,"target":2,"flow":0,"factor":1,"exact":1}|};
      {|{"op":"prices","source":1}|};
    ]

let results_of line =
  match Json.parse line with
  | Ok v -> (
    match Option.bind (Json.member "results" v) Json.to_list with
    | Some l -> List.map Json.to_string l
    | None -> Alcotest.failf "no results array in %s" line)
  | Error msg -> Alcotest.failf "bad response %s: %s" line msg

(* A batched whatif request must answer exactly as the same queries
   sent one per line: each query is independent (always scaled relative
   to the live set), so the per-result objects are byte-identical. *)
let whatif_batched_equals_sequential () =
  let s = make_session Session.Warm 7L in
  let seq = ref 0 in
  let send line =
    incr seq;
    fst (Session.handle_line s ~seq:!seq line)
  in
  let admitted =
    List.filter_map
      (fun (src, tgt) ->
        let r =
          send
            (Printf.sprintf {|{"op":"admit","source":%d,"target":%d,"demand_mbps":0.25}|} src
               tgt)
        in
        match Json.parse r with
        | Ok v when Json.member "admitted" v = Some (Json.Bool true) ->
          Option.bind (Json.member "flow" v) Json.to_int
        | _ -> None)
      [ (0, 1); (2, 3); (4, 5); (6, 7) ]
  in
  check Alcotest.bool "enough background admitted" true (List.length admitted >= 2);
  let queries = List.concat_map (fun fid -> [ (fid, 0.5); (fid, 1.0); (fid, 2.0) ]) admitted in
  let query_json (f, x) = Printf.sprintf {|{"flow":%d,"factor":%g}|} f x in
  let batched =
    send
      (Printf.sprintf {|{"op":"whatif","source":0,"target":1,"queries":[%s]}|}
         (String.concat "," (List.map query_json queries)))
  in
  let sequential =
    List.concat_map
      (fun (f, x) ->
        results_of
          (send
             (Printf.sprintf {|{"op":"whatif","source":0,"target":1,"flow":%d,"factor":%g}|} f
                x)))
      queries
  in
  check (Alcotest.list Alcotest.string) "batched results = sequential results" sequential
    (results_of batched);
  (* Factor 1 is the identity scaling: predicted availability must be
     the base figure, and exact mode must agree with the prediction. *)
  let f0 = List.hd admitted in
  let at_factor_1 exact =
    let line =
      send
        (Printf.sprintf {|{"op":"whatif","source":0,"target":1,"flow":%d,"factor":1%s}|} f0
           (if exact then {|,"exact":true|} else ""))
    in
    let v = Result.get_ok (Json.parse line) in
    let base = Option.bind (Json.member "base_mbps" v) Json.to_float in
    let avail =
      match Option.bind (Json.member "results" v) Json.to_list with
      | Some [ r ] -> Option.bind (Json.member "available_mbps" r) Json.to_float
      | _ -> None
    in
    (base, avail)
  in
  let base_p, avail_p = at_factor_1 false in
  let base_e, avail_e = at_factor_1 true in
  check Alcotest.bool "factor 1 predicts the base figure" true
    (base_p <> None && base_p = avail_p);
  check Alcotest.bool "exact factor 1 agrees" true (base_p = base_e && avail_p = avail_e);
  (* Unknown flow ids draw a protocol error, not a response. *)
  let err = send {|{"op":"whatif","source":0,"target":1,"flow":999,"factor":1}|} in
  check Alcotest.bool "unknown flow errors" true
    (match Json.parse err with
     | Ok v -> Json.member "ok" v = Some (Json.Bool false)
     | Error _ -> false)

let prices_respond () =
  let s = make_session Session.Warm 7L in
  let seq = ref 0 in
  let send line =
    incr seq;
    fst (Session.handle_line s ~seq:!seq line)
  in
  let _ = send {|{"op":"admit","source":0,"target":1,"demand_mbps":0.25}|} in
  let _ = send {|{"op":"admit","source":2,"target":3,"demand_mbps":0.25}|} in
  let line = send {|{"op":"prices","source":0,"target":1}|} in
  let v = Result.get_ok (Json.parse line) in
  check Alcotest.bool "prices ok" true (Json.member "ok" v = Some (Json.Bool true));
  let path_len =
    match Option.bind (Json.member "path" v) Json.to_list with
    | Some l -> List.length l
    | None -> Alcotest.failf "prices without a path: %s" line
  in
  (match Option.bind (Json.member "link_prices" v) Json.to_list with
   | Some l -> check Alcotest.int "one price per path link" path_len (List.length l)
   | None -> Alcotest.failf "no link_prices in %s" line);
  (match Option.bind (Json.member "throttle" v) Json.to_list with
   | Some l -> check Alcotest.int "one ranking entry per live flow" 2 (List.length l)
   | None -> Alcotest.failf "no throttle in %s" line);
  check Alcotest.bool "sigma present" true (Json.member "sigma_mbps" v <> None)

let suite =
  [
    Alcotest.test_case "json round-trips" `Quick json_roundtrip;
    Alcotest.test_case "json accessors" `Quick json_accessors;
    Alcotest.test_case "protocol parsing" `Quick protocol_parse;
    Alcotest.test_case "wire quantisation" `Quick protocol_quantisation;
    Alcotest.test_case "session lifecycle" `Quick session_lifecycle;
    Alcotest.test_case "session id echo" `Quick session_id_echo;
    Alcotest.test_case "admission decided on the unrounded optimum" `Quick
      admission_decided_unrounded;
    Alcotest.test_case "stdio transport over pipes" `Quick stdio_transport;
    Alcotest.test_case "admission traces deterministic" `Quick trace_deterministic;
    QCheck_alcotest.to_alcotest qcheck_warm_equals_cold;
    QCheck_alcotest.to_alcotest qcheck_auto_session_equals_exact;
    Alcotest.test_case "whatif/prices parsing" `Quick whatif_parse;
    Alcotest.test_case "batched whatif = sequential" `Quick whatif_batched_equals_sequential;
    Alcotest.test_case "prices respond" `Quick prices_respond;
  ]
