module Registry = Wsn_telemetry.Registry

type failure = Exn of string | Signalled of int | Timeout

type outcome = Done of string | Failed of failure

type result = {
  spec : Spec.t;
  index : int;
  outcome : outcome;
  attempts : int;
  cached : bool;
  wall_s : float;
}

let failure_to_string = function
  | Exn msg -> msg
  | Signalled s -> Printf.sprintf "worker killed by signal %d" s
  | Timeout -> "timed out"

let m_jobs = Registry.counter "engine.jobs"

let m_cache_hits = Registry.counter "engine.cache_hits"

let m_cache_misses = Registry.counter "engine.cache_misses"

let m_retries = Registry.counter "engine.retries"

let m_failures = Registry.counter "engine.failures"

let m_timeouts = Registry.counter "engine.timeouts"

let m_forks = Registry.counter "engine.forks"

let g_queue = Registry.gauge "engine.queue_depth"

let g_inflight = Registry.gauge "engine.inflight_max"

let s_job = Registry.span "engine.job"

let cache_find cache spec =
  match cache with
  | None -> None
  | Some t -> (
    match Cache.find t spec with
    | Some _ as hit ->
      Registry.incr m_cache_hits;
      hit
    | None ->
      Registry.incr m_cache_misses;
      None)

let cache_store cache spec payload =
  match cache with None -> () | Some t -> Cache.store t spec payload

(* --- one forked attempt --------------------------------------------- *)

(* The child computes [runner spec] in its own address space and ships
   ['O' ^ payload] (or ['E' ^ exn]) back over the pipe.  It must leave
   via [Unix._exit]: a plain [exit] would flush stdio buffers inherited
   from the parent (duplicating its pending output) and run the
   parent's [at_exit] hooks. *)
let spawn ~runner spec =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    (* Worker domains do not survive fork and the inherited pool
       mutexes are in an unspecified state: forget them before the
       runner can touch any parallel code path. *)
    Wsn_parallel.Pool.reset_after_fork ();
    (try Unix.close r with Unix.Unix_error _ -> ());
    let tag, data = (try ('O', runner spec) with e -> ('E', Printexc.to_string e)) in
    let msg = Bytes.of_string (String.make 1 tag ^ data) in
    let rec write_all off =
      if off < Bytes.length msg then
        match Unix.write w msg off (Bytes.length msg - off) with
        | n -> write_all (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all off
    in
    (try write_all 0 with Unix.Unix_error _ -> ());
    (try Unix.close w with Unix.Unix_error _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close w;
    (pid, r)

type child = {
  pid : int;
  c_index : int;
  c_spec : Spec.t;
  attempt : int;
  fd : Unix.file_descr;
  buf : Buffer.t;
  started : float;
  deadline : float;
}

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Interpret a reaped attempt.  A signalled worker is a crash even if
   part of a payload made it out (a kill can interrupt the write). *)
let attempt_outcome status data =
  match status with
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Error (Signalled s)
  | Unix.WEXITED code ->
    let n = String.length data in
    if n > 0 && data.[0] = 'O' then Ok (String.sub data 1 (n - 1))
    else if n > 0 && data.[0] = 'E' then Error (Exn (String.sub data 1 (n - 1)))
    else Error (Exn (Printf.sprintf "worker exited with code %d and no result" code))

let run ?(workers = 1) ?(timeout_s = infinity) ?(retries = 0) ?cache ?on_result
    ~runner specs =
  let arr = Array.of_list specs in
  let n = Array.length arr in
  let results = Array.make n None in
  let finalize res =
    Registry.incr m_jobs;
    (match res.outcome with Done _ -> () | Failed _ -> Registry.incr m_failures);
    Registry.observe s_job res.wall_s;
    results.(res.index) <- Some res;
    match on_result with Some f -> f res | None -> ()
  in
  if workers <= 0 then
    (* In-process: no isolation and no timeouts, but identical
       ordering, caching, retry and telemetry semantics. *)
    Array.iteri
      (fun i spec ->
        Registry.set g_queue (float_of_int (n - i - 1));
        match cache_find cache spec with
        | Some payload ->
          finalize { spec; index = i; outcome = Done payload; attempts = 0; cached = true; wall_s = 0.0 }
        | None ->
          let t0 = Unix.gettimeofday () in
          let rec go attempt =
            match runner spec with
            | payload ->
              cache_store cache spec payload;
              (Done payload, attempt)
            | exception e ->
              if attempt <= retries then begin
                Registry.incr m_retries;
                go (attempt + 1)
              end
              else (Failed (Exn (Printexc.to_string e)), attempt)
          in
          let outcome, attempts = go 1 in
          finalize
            {
              spec;
              index = i;
              outcome;
              attempts;
              cached = false;
              wall_s = Unix.gettimeofday () -. t0;
            })
      arr
  else begin
    (* select(2) bounds the practical fan-out. *)
    let workers = min workers 256 in
    let inflight = ref [] in
    let next = ref 0 in
    let spawn_job index spec attempt =
      Registry.incr m_forks;
      let pid, fd = spawn ~runner spec in
      let now = Unix.gettimeofday () in
      let deadline = if timeout_s = infinity then infinity else now +. timeout_s in
      inflight :=
        { pid; c_index = index; c_spec = spec; attempt; fd; buf = Buffer.create 1024; started = now;
          deadline }
        :: !inflight
    in
    (* A failed or timed-out attempt either respawns in the freed slot
       or becomes the job's final outcome. *)
    let resolve_failed c failure =
      if c.attempt <= retries then begin
        Registry.incr m_retries;
        spawn_job c.c_index c.c_spec (c.attempt + 1)
      end
      else
        finalize
          {
            spec = c.c_spec;
            index = c.c_index;
            outcome = Failed failure;
            attempts = c.attempt;
            cached = false;
            wall_s = Unix.gettimeofday () -. c.started;
          }
    in
    let drop c = inflight := List.filter (fun x -> x != c) !inflight in
    while !next < n || !inflight <> [] do
      while !next < n && List.length !inflight < workers do
        let i = !next in
        incr next;
        Registry.set g_queue (float_of_int (n - !next));
        let spec = arr.(i) in
        match cache_find cache spec with
        | Some payload ->
          finalize { spec; index = i; outcome = Done payload; attempts = 0; cached = true; wall_s = 0.0 }
        | None -> spawn_job i spec 1
      done;
      Registry.set_max g_inflight (float_of_int (List.length !inflight));
      if !inflight <> [] then begin
        let now = Unix.gettimeofday () in
        let min_deadline =
          List.fold_left (fun acc c -> Float.min acc c.deadline) infinity !inflight
        in
        let tmo =
          if min_deadline = infinity then 1.0
          else Float.max 0.0 (Float.min 1.0 (min_deadline -. now))
        in
        let readable =
          match Unix.select (List.map (fun c -> c.fd) !inflight) [] [] tmo with
          | r, _, _ -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        let chunk = Bytes.create 65536 in
        List.iter
          (fun c ->
            if List.memq c.fd readable then
              match Unix.read c.fd chunk 0 (Bytes.length chunk) with
              | 0 ->
                (* EOF: the attempt is over; reap and interpret. *)
                drop c;
                Unix.close c.fd;
                let status = waitpid_retry c.pid in
                (match attempt_outcome status (Buffer.contents c.buf) with
                 | Ok payload ->
                   cache_store cache c.c_spec payload;
                   finalize
                     {
                       spec = c.c_spec;
                       index = c.c_index;
                       outcome = Done payload;
                       attempts = c.attempt;
                       cached = false;
                       wall_s = Unix.gettimeofday () -. c.started;
                     }
                 | Error failure -> resolve_failed c failure)
              | len -> Buffer.add_subbytes c.buf chunk 0 len
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
          !inflight;
        let now = Unix.gettimeofday () in
        List.iter
          (fun c ->
            if now >= c.deadline then begin
              drop c;
              (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (waitpid_retry c.pid);
              (try Unix.close c.fd with Unix.Unix_error _ -> ());
              Registry.incr m_timeouts;
              resolve_failed c Timeout
            end)
          !inflight
      end
    done
  end;
  Registry.set g_queue 0.0;
  Array.to_list
    (Array.map (function Some r -> r | None -> assert false (* every index finalizes *)) results)
