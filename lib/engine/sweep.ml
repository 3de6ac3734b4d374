module Registry = Wsn_telemetry.Registry
module Json = Wsn_telemetry.Json

type config = {
  workers : int;
  timeout_s : float;
  retries : int;
  cache_dir : string option;
  fingerprint : string option;
  out : string option;
  journal : string option;
  resume : bool;
  retry_failed : bool;
}

let default =
  {
    workers = 1;
    timeout_s = infinity;
    retries = 1;
    cache_dir = Some Cache.default_dir;
    fingerprint = None;
    out = None;
    journal = None;
    resume = false;
    retry_failed = false;
  }

type summary = {
  total : int;
  ok : int;
  failed : int;
  cached : int;
  skipped_failed : int;
  retries_used : int;
  wall_s : float;
}

let g_hit_rate = Registry.gauge "engine.cache_hit_rate"

(* No attempt counts or timings here — those live in the journal.  The
   results file is a pure function of the grid and the code, so cold,
   warm and any [-j N] run of the same grid are byte-identical. *)
let result_line (r : Pool.result) =
  let outcome =
    match r.Pool.outcome with
    | Pool.Done payload -> [ ("status", Json.Str "ok"); ("payload", Json.Str payload) ]
    | Pool.Failed f ->
      let status =
        match f with Pool.Timeout -> "timeout" | Pool.Exn _ | Pool.Signalled _ -> "failed"
      in
      [ ("status", Json.Str status); ("error", Json.Str (Pool.failure_to_string f)) ]
  in
  Json.to_string
    (Json.Obj
       (("hash", Json.Str (Spec.hash r.Pool.spec))
       :: ("spec", Json.Str (Spec.canonical r.Pool.spec))
       :: outcome))
  ^ "\n"

(* Whether [path] is a non-empty file whose last byte is not a newline. *)
let ends_torn path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let len = in_channel_length ic in
        len > 0
        &&
        (seek_in ic (len - 1);
         input_char ic <> '\n'))

let run cfg ~runner specs =
  Wsn_telemetry.Span.with_span "engine.sweep" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let cache =
    Option.map (fun dir -> Cache.create ?fingerprint:cfg.fingerprint ~dir ()) cfg.cache_dir
  in
  let prior =
    match cfg.journal with
    | Some path when cfg.resume -> Journal.last_by_hash (Journal.load path)
    | _ -> Hashtbl.create 1
  in
  let journal_oc =
    Option.map
      (fun path ->
        if cfg.resume then begin
          (* A run killed mid-write leaves a torn last line; end it, so
             the first appended record starts a line of its own. *)
          let torn = ends_torn path in
          let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
          if torn then output_char oc '\n';
          oc
        end
        else open_out_gen [ Open_trunc; Open_creat; Open_wronly ] 0o644 path)
      cfg.journal
  in
  let n = List.length specs in
  let results = Array.make n None in
  let skipped_failed = ref 0 in
  (* Resume: jobs the journal already settled as failed are carried
     over, not re-run (successes come back through the cache and need
     no special casing).  [retry_failed] re-opens them. *)
  let to_run = ref [] in
  List.iteri
    (fun i spec ->
      match Hashtbl.find_opt prior (Spec.hash spec) with
      | Some e when e.Journal.status <> Journal.Ok_done && not cfg.retry_failed ->
        incr skipped_failed;
        let failure =
          match e.Journal.status with
          | Journal.Timed_out -> Pool.Timeout
          | Journal.Failed | Journal.Ok_done ->
            Pool.Exn
              (if e.Journal.error = "" then "failed in resumed journal" else e.Journal.error)
        in
        results.(i) <-
          Some
            {
              Pool.spec;
              index = i;
              outcome = Pool.Failed failure;
              attempts = e.Journal.attempts;
              cached = false;
              wall_s = 0.0;
            }
      | _ -> to_run := (i, spec) :: !to_run)
    specs;
  let to_run = List.rev !to_run in
  let orig = Array.of_list (List.map fst to_run) in
  let on_result (r : Pool.result) =
    match journal_oc with
    | None -> ()
    | Some oc ->
      let status, error =
        match r.Pool.outcome with
        | Pool.Done _ -> (Journal.Ok_done, "")
        | Pool.Failed Pool.Timeout -> (Journal.Timed_out, Pool.failure_to_string Pool.Timeout)
        | Pool.Failed f -> (Journal.Failed, Pool.failure_to_string f)
      in
      Journal.append oc
        {
          Journal.hash = Spec.hash r.Pool.spec;
          spec = Spec.canonical r.Pool.spec;
          status;
          attempts = r.Pool.attempts;
          cached = r.Pool.cached;
          error;
        }
  in
  let pool_results =
    Pool.run ~workers:cfg.workers ~timeout_s:cfg.timeout_s
      ~retries:cfg.retries ?cache ~on_result ~runner (List.map snd to_run)
  in
  Option.iter close_out journal_oc;
  let retries_used =
    List.fold_left (fun acc (r : Pool.result) -> acc + max 0 (r.Pool.attempts - 1)) 0 pool_results
  in
  List.iter
    (fun (r : Pool.result) ->
      let i = orig.(r.Pool.index) in
      results.(i) <- Some { r with Pool.index = i })
    pool_results;
  let results =
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false (* all indices resolved *)) results)
  in
  (match cfg.out with
   | None -> ()
   | Some path ->
     Out_channel.with_open_bin path (fun oc ->
         List.iter (fun r -> Out_channel.output_string oc (result_line r)) results));
  let ok = List.length (List.filter (fun r -> match r.Pool.outcome with Pool.Done _ -> true | _ -> false) results) in
  let cached = List.length (List.filter (fun r -> r.Pool.cached) results) in
  let summary =
    {
      total = n;
      ok;
      failed = n - ok;
      cached;
      skipped_failed = !skipped_failed;
      retries_used;
      wall_s = Unix.gettimeofday () -. t0;
    }
  in
  if n > 0 then Registry.set g_hit_rate (float_of_int cached /. float_of_int n);
  (results, summary)

let pp_summary fmt s =
  let rate = if s.wall_s > 0.0 then float_of_int s.total /. s.wall_s else 0.0 in
  Format.fprintf fmt "# sweep: %d jobs in %.2fs (%.1f jobs/s) — %d ok (%d cached), %d failed, %d retries"
    s.total s.wall_s rate s.ok s.cached s.failed s.retries_used;
  if s.skipped_failed > 0 then
    Format.fprintf fmt " (%d skipped as failed in resumed journal)" s.skipped_failed
