(* Wsn_engine: spec/grid codecs, the forked pool's determinism, cache
   and journal behaviour, fault isolation, and byte-identity of the
   engine's Fig. 3 path with the direct e3 path. *)

module Spec = Wsn_engine.Spec
module Grid = Wsn_engine.Grid
module Cache = Wsn_engine.Cache
module Journal = Wsn_engine.Journal
module Pool = Wsn_engine.Pool
module Sweep = Wsn_engine.Sweep
module Sweep_jobs = Wsn_experiments.Sweep_jobs
module Fig3 = Wsn_experiments.Fig3

let check = Alcotest.check

let tmp_counter = ref 0

(* A fresh scratch directory per call, removed by the caller only if it
   cares; the OS temp dir is fine for test residue. *)
let fresh_dir () =
  incr tmp_counter;
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wsn-engine-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let spec ?(kind = "fig3") ?(seed = 1L) ?(n_flows = 2) ?(demand = 2.0) ?(metric = "hop-count") () =
  Spec.make ~kind ~seed ~n_flows ~demand_mbps:demand ~metric

(* --- spec ----------------------------------------------------------- *)

let test_spec_roundtrip () =
  let s = spec ~seed:42L ~n_flows:8 ~demand:2.5 ~metric:"average-e2eD" () in
  let line = Spec.canonical s in
  check Alcotest.string "canonical shape"
    "kind=fig3 seed=42 n_flows=8 demand=0x1.4p+1 metric=average-e2eD" line;
  check Alcotest.string "hash is canonical md5" (Digest.to_hex (Digest.string line)) (Spec.hash s);
  match Spec.make ~kind:"no spaces" ~seed:1L ~n_flows:1 ~demand_mbps:1.0 ~metric:"m" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind with a space accepted"

let test_grid_parse () =
  let ok s = match Grid.parse_range s with Ok v -> v | Error m -> Alcotest.fail m in
  check (Alcotest.list Alcotest.int64) "span" [ 1L; 2L; 3L; 4L ] (ok "1..4");
  check (Alcotest.list Alcotest.int64) "single" [ 30L ] (ok "30");
  check (Alcotest.list Alcotest.int64) "mixed order kept" [ 5L; 1L; 2L; 9L ] (ok "5,1..2,9");
  List.iter
    (fun bad ->
      match Grid.parse_range bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ ""; "a"; "3..1"; "1.."; "1...4"; "1,,2" ];
  let specs =
    Grid.specs ~kind:"fig3" ~seeds:[ 1L; 2L ] ~metrics:[ "a"; "b" ] ~n_flows:2 ~demand_mbps:2.0
  in
  check (Alcotest.list Alcotest.string) "seed-major order"
    [ "1/a"; "1/b"; "2/a"; "2/b" ]
    (List.map (fun (s : Spec.t) -> Printf.sprintf "%Ld/%s" s.Spec.seed s.Spec.metric) specs)

(* --- journal codec -------------------------------------------------- *)

let test_journal_roundtrip () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "journal.jsonl" in
  let entries =
    [
      { Journal.hash = "abc"; spec = "kind=fig3 seed=1"; status = Journal.Ok_done; attempts = 1;
        cached = false; error = "" };
      { Journal.hash = "def"; spec = "kind=fail seed=2"; status = Journal.Failed; attempts = 3;
        cached = false; error = "Failure(\"boom\")\nwith a newline" };
      { Journal.hash = "ghi"; spec = "kind=sleep seed=3"; status = Journal.Timed_out; attempts = 2;
        cached = true; error = "timed out" };
    ]
  in
  Out_channel.with_open_bin path (fun oc -> List.iter (Journal.append oc) entries);
  (* Torn lines (crash mid-append) must not break loading, nor load as
     records: the first tear holds every required field but lost
     "attempts":12 and the error to the cut. *)
  Out_channel.with_open_gen [ Open_append ] 0o644 path (fun oc ->
      Out_channel.output_string oc
        "{\"hash\":\"def\",\"spec\":\"kind=fail seed=2\",\"status\":\"failed\",\"attempts\":1\n";
      Out_channel.output_string oc "{\"hash\":\"to");
  let loaded = Journal.load path in
  check Alcotest.int "all intact lines load" 3 (List.length loaded);
  List.iter2
    (fun (e : Journal.entry) (l : Journal.entry) ->
      check Alcotest.string "hash" e.Journal.hash l.Journal.hash;
      check Alcotest.string "spec" e.Journal.spec l.Journal.spec;
      check Alcotest.string "status" (Journal.status_to_string e.Journal.status)
        (Journal.status_to_string l.Journal.status);
      check Alcotest.int "attempts" e.Journal.attempts l.Journal.attempts;
      check Alcotest.bool "cached" e.Journal.cached l.Journal.cached;
      check Alcotest.string "error" e.Journal.error l.Journal.error)
    entries loaded

(* --- cache ---------------------------------------------------------- *)

let test_cache_fingerprint () =
  let dir = fresh_dir () in
  let c1 = Cache.create ~fingerprint:"build-1" ~dir () in
  let c2 = Cache.create ~fingerprint:"build-2" ~dir () in
  let s = spec () in
  Cache.store c1 s "payload-v1";
  check (Alcotest.option Alcotest.string) "same fingerprint hits" (Some "payload-v1")
    (Cache.find c1 s);
  check (Alcotest.option Alcotest.string) "new code fingerprint misses" None (Cache.find c2 s);
  check Alcotest.bool "keys differ across fingerprints" true (Cache.key c1 s <> Cache.key c2 s)

(* --- pool + sweep --------------------------------------------------- *)

let fig3_grid ~seeds ~n_flows =
  Grid.specs ~kind:"fig3" ~seeds
    ~metrics:(List.map Wsn_routing.Metrics.name Wsn_routing.Metrics.all)
    ~n_flows ~demand_mbps:2.0

let sweep_cfg ~dir ~workers =
  {
    Sweep.default with
    Sweep.workers;
    retries = 1;
    cache_dir = Some (Filename.concat dir "cache");
    out = Some (Filename.concat dir (Printf.sprintf "results-j%d.jsonl" workers));
    journal = Some (Filename.concat dir (Printf.sprintf "journal-j%d.jsonl" workers));
  }

let test_determinism_and_cache () =
  let specs = fig3_grid ~seeds:[ 1L; 2L ] ~n_flows:2 in
  (* Fresh caches: -j1 and -j4 must produce byte-identical results. *)
  let d1 = fresh_dir () and d4 = fresh_dir () in
  let cfg1 = sweep_cfg ~dir:d1 ~workers:1 and cfg4 = sweep_cfg ~dir:d4 ~workers:4 in
  let _, s1 = Sweep.run cfg1 ~runner:Sweep_jobs.runner specs in
  let _, s4 = Sweep.run cfg4 ~runner:Sweep_jobs.runner specs in
  check Alcotest.int "j1 all ok" 6 s1.Sweep.ok;
  check Alcotest.int "j4 all ok" 6 s4.Sweep.ok;
  check Alcotest.int "j1 nothing cached" 0 s1.Sweep.cached;
  let bytes1 = read_file (Option.get cfg1.Sweep.out) in
  check Alcotest.string "results byte-identical for -j1 vs -j4" bytes1
    (read_file (Option.get cfg4.Sweep.out));
  (* Journals are permutations of the same completion records. *)
  let key (e : Journal.entry) =
    Printf.sprintf "%s %s %d" e.Journal.hash (Journal.status_to_string e.Journal.status)
      e.Journal.attempts
  in
  check (Alcotest.list Alcotest.string) "journals equal as sets"
    (List.sort compare (List.map key (Journal.load (Option.get cfg1.Sweep.journal))))
    (List.sort compare (List.map key (Journal.load (Option.get cfg4.Sweep.journal))));
  (* Second run over the same cache: 100% hits, same bytes. *)
  let cfg_warm =
    { cfg4 with Sweep.out = Some (Filename.concat d4 "results-warm.jsonl") }
  in
  let _, warm = Sweep.run cfg_warm ~runner:Sweep_jobs.runner specs in
  check Alcotest.int "warm run ok" 6 warm.Sweep.ok;
  check Alcotest.int "warm run 100% cached" 6 warm.Sweep.cached;
  check Alcotest.string "warm results byte-identical" bytes1
    (read_file (Option.get cfg_warm.Sweep.out))

let outcome_label (r : Pool.result) =
  match r.Pool.outcome with
  | Pool.Done _ -> "ok"
  | Pool.Failed Pool.Timeout -> "timeout"
  | Pool.Failed (Pool.Signalled _) -> "signalled"
  | Pool.Failed (Pool.Exn _) -> "failed"

let test_fault_injection_fail () =
  (* A deterministically-raising job is retried the configured number
     of times, lands in the journal as failed, and neither blocks its
     siblings nor poisons the cache. *)
  let dir = fresh_dir () in
  let ok1 = spec ~seed:1L () in
  let bad = spec ~kind:"fail" ~seed:2L () in
  let ok2 = spec ~seed:3L () in
  let cfg = { (sweep_cfg ~dir ~workers:2) with Sweep.retries = 2 } in
  let results, summary = Sweep.run cfg ~runner:Sweep_jobs.runner [ ok1; bad; ok2 ] in
  check (Alcotest.list Alcotest.string) "siblings unaffected" [ "ok"; "failed"; "ok" ]
    (List.map outcome_label results);
  check Alcotest.int "one failure" 1 summary.Sweep.failed;
  let bad_result = List.nth results 1 in
  check Alcotest.int "1 + 2 retries attempts" 3 bad_result.Pool.attempts;
  check Alcotest.int "2 retries counted" 2 summary.Sweep.retries_used;
  (match bad_result.Pool.outcome with
   | Pool.Failed (Pool.Exn msg) ->
     check Alcotest.bool "failure message surfaced" true (contains ~sub:"injected failure" msg)
   | _ -> Alcotest.fail "expected Exn failure");
  let journal = Journal.last_by_hash (Journal.load (Option.get cfg.Sweep.journal)) in
  (match Hashtbl.find_opt journal (Spec.hash bad) with
   | Some e ->
     check Alcotest.string "journalled failed" "failed" (Journal.status_to_string e.Journal.status);
     check Alcotest.int "journalled attempts" 3 e.Journal.attempts
   | None -> Alcotest.fail "failed job missing from journal");
  (* The cache holds the two successes and nothing for the failure. *)
  let cache = Cache.create ~dir:(Filename.concat dir "cache") () in
  check Alcotest.bool "ok cached" true (Cache.find cache ok1 <> None);
  check (Alcotest.option Alcotest.string) "failure not cached" None (Cache.find cache bad)

let test_fault_injection_crash_and_timeout () =
  (* kind=crash raises SIGSEGV inside the worker; kind=sleep outlives
     the timeout.  Both must fail only their own job. *)
  let dir = fresh_dir () in
  let ok = spec ~seed:1L () in
  let crash = spec ~kind:"crash" ~seed:2L () in
  let slow = spec ~kind:"sleep" ~seed:3L ~demand:30.0 () in
  let cfg =
    { (sweep_cfg ~dir ~workers:3) with Sweep.retries = 1; timeout_s = 0.3 }
  in
  let results, summary = Sweep.run cfg ~runner:Sweep_jobs.runner [ ok; crash; slow ] in
  check (Alcotest.list Alcotest.string) "isolated failures" [ "ok"; "signalled"; "timeout" ]
    (List.map outcome_label results);
  check Alcotest.int "two failures" 2 summary.Sweep.failed;
  check Alcotest.int "both jobs retried once" 2 summary.Sweep.retries_used;
  let journal = Journal.last_by_hash (Journal.load (Option.get cfg.Sweep.journal)) in
  (match Hashtbl.find_opt journal (Spec.hash slow) with
   | Some e ->
     check Alcotest.string "timeout journalled" "timeout"
       (Journal.status_to_string e.Journal.status);
     check Alcotest.int "timeout attempts" 2 e.Journal.attempts
   | None -> Alcotest.fail "timeout missing from journal");
  match Hashtbl.find_opt journal (Spec.hash crash) with
  | Some e ->
    check Alcotest.string "crash journalled" "failed" (Journal.status_to_string e.Journal.status)
  | None -> Alcotest.fail "crash missing from journal"

let test_resume_skips_failed () =
  let dir = fresh_dir () in
  let specs = [ spec ~seed:1L (); spec ~kind:"fail" ~seed:2L (); spec ~seed:3L () ] in
  let cfg = sweep_cfg ~dir ~workers:2 in
  let _, first = Sweep.run cfg ~runner:Sweep_jobs.runner specs in
  check Alcotest.int "first pass: one failure" 1 first.Sweep.failed;
  (* Resume: successes come back from the cache, the failure is
     reported from the journal without re-running (attempts preserved),
     and the journal gains no new lines for it. *)
  let lines_before = List.length (Journal.load (Option.get cfg.Sweep.journal)) in
  let cfg_resume = { cfg with Sweep.resume = true } in
  let results, second = Sweep.run cfg_resume ~runner:Sweep_jobs.runner specs in
  check Alcotest.int "resume: still one failure" 1 second.Sweep.failed;
  check Alcotest.int "resume: failure skipped, not re-run" 1 second.Sweep.skipped_failed;
  check Alcotest.int "resume: successes all cached" 2 second.Sweep.cached;
  check Alcotest.int "resume: carried attempts" 2 (List.nth results 1).Pool.attempts;
  check Alcotest.int "resume: no new journal lines for the skip" (lines_before + 2)
    (List.length (Journal.load (Option.get cfg.Sweep.journal)));
  (* retry_failed re-opens it (and it fails again, appending a line). *)
  let cfg_retry = { cfg_resume with Sweep.retry_failed = true } in
  let _, third = Sweep.run cfg_retry ~runner:Sweep_jobs.runner specs in
  check Alcotest.int "retry-failed re-runs" 0 third.Sweep.skipped_failed;
  check Alcotest.int "and it still fails" 1 third.Sweep.failed

let test_resume_after_torn_tail () =
  (* A run killed mid-write leaves the journal's last line torn.  The
     resumed run's records must start on lines of their own: one
     written onto the torn line would be dropped with it by the next
     load, and its job re-run. *)
  let dir = fresh_dir () in
  let specs = [ spec ~seed:1L (); spec ~seed:2L (); spec ~seed:3L () ] in
  let cfg = { (sweep_cfg ~dir ~workers:0) with Sweep.cache_dir = None } in
  let path = Option.get cfg.Sweep.journal in
  ignore (Sweep.run cfg ~runner:Sweep_jobs.runner specs);
  let first_line = List.hd (String.split_on_char '\n' (read_file path)) in
  Out_channel.with_open_bin path (fun oc -> output_string oc (String.sub first_line 0 40));
  check Alcotest.int "torn journal loads empty" 0 (List.length (Journal.load path));
  ignore (Sweep.run { cfg with Sweep.resume = true } ~runner:Sweep_jobs.runner specs);
  let loaded = Journal.last_by_hash (Journal.load path) in
  List.iter
    (fun s ->
      check Alcotest.bool ("record for " ^ Spec.canonical s) true
        (Hashtbl.mem loaded (Spec.hash s)))
    specs

let test_inprocess_matches_forked () =
  (* workers=0 (in-process) must produce the same payloads as the
     forked pool — it is the embedded/aggregate path. *)
  let specs = fig3_grid ~seeds:[ 5L ] ~n_flows:2 in
  let payloads workers =
    List.map
      (fun (r : Pool.result) ->
        match r.Pool.outcome with Pool.Done p -> p | Pool.Failed _ -> "FAILED")
      (Pool.run ~workers ~runner:Sweep_jobs.runner specs)
  in
  check (Alcotest.list Alcotest.string) "in-process == forked" (payloads 0) (payloads 2)

let test_fig3_engine_byte_identity () =
  (* The acceptance bar: the engine's sweep path re-renders the e3
     table byte-identically to the direct path, for the paper's real
     grid (seed 30, 8 flows, all metrics). *)
  let seed = 30L in
  let specs = fig3_grid ~seeds:[ seed ] ~n_flows:8 in
  let results = Pool.run ~workers:2 ~runner:Sweep_jobs.runner specs in
  let pairs =
    List.map
      (fun (r : Pool.result) ->
        match r.Pool.outcome with
        | Pool.Done p -> (r.Pool.spec, p)
        | Pool.Failed f -> Alcotest.failf "job failed: %s" (Pool.failure_to_string f))
      results
  in
  check Alcotest.string "sweep table == e3 render" (Fig3.render (Fig3.compute ~seed ()))
    (Sweep_jobs.table pairs);
  (* And the aggregate means agree with direct recomputation. *)
  let means = Sweep_jobs.mean_admitted pairs in
  let direct = Fig3.compute ~seed () in
  List.iter2
    (fun (m, mean) run ->
      check Alcotest.string "metric order" (Wsn_routing.Metrics.name m) run.Wsn_routing.Admission.label;
      check (Alcotest.float 1e-9) "mean == direct count" (float_of_int (Fig3.admitted_count run)) mean)
    means direct.Fig3.runs

let suite =
  [
    Alcotest.test_case "spec roundtrip + hash" `Quick test_spec_roundtrip;
    Alcotest.test_case "grid parsing" `Quick test_grid_parse;
    Alcotest.test_case "journal roundtrip + torn line" `Quick test_journal_roundtrip;
    Alcotest.test_case "cache fingerprint invalidation" `Quick test_cache_fingerprint;
    Alcotest.test_case "determinism -j1 vs -j4 + warm cache" `Slow test_determinism_and_cache;
    Alcotest.test_case "fault injection: raising job" `Slow test_fault_injection_fail;
    Alcotest.test_case "fault injection: crash + timeout" `Slow test_fault_injection_crash_and_timeout;
    Alcotest.test_case "resume skips failed jobs" `Slow test_resume_skips_failed;
    Alcotest.test_case "resume after a torn journal tail" `Slow test_resume_after_torn_tail;
    Alcotest.test_case "in-process matches forked" `Slow test_inprocess_matches_forked;
    Alcotest.test_case "fig3 byte-identity (seed 30)" `Slow test_fig3_engine_byte_identity;
  ]
