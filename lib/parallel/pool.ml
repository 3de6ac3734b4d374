(* Work items are claimed by [Atomic.fetch_and_add] on [next]; the
   last completer (the one that drops [remaining] to 0) marks the job
   finished under the pool lock and broadcasts.  Workers scan the job
   list for the first entry with unclaimed items; submitters push their
   job, then drain it themselves alongside the workers, then block only
   for the in-flight tail.  Newest jobs sit at the head of the list so
   nested fan-outs drain before their parents — this keeps the working
   set small and guarantees progress for the innermost submitter. *)

type job = {
  run : int -> unit;
  n : int;
  next : int Atomic.t;
  remaining : int Atomic.t;
  cancelled : bool Atomic.t;
  error : (exn * Printexc.raw_backtrace) option Atomic.t;
  mutable finished : bool;  (* protected by the pool lock *)
}

type t = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable jobs : job list;  (* newest first; protected by [lock] *)
  mutable stop : bool;  (* protected by [lock] *)
  mutable workers : unit Domain.t list;
  size : int;
}

let size pool = pool.size

(* Returns [true] when this call completed the job's last item. *)
let run_item job i =
  (if not (Atomic.get job.cancelled) then
     try job.run i
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       if Atomic.compare_and_set job.error None (Some (e, bt)) then
         Atomic.set job.cancelled true);
  Atomic.fetch_and_add job.remaining (-1) = 1

let finish pool job =
  Mutex.lock pool.lock;
  job.finished <- true;
  pool.jobs <- List.filter (fun j -> j != job) pool.jobs;
  Condition.broadcast pool.cond;
  Mutex.unlock pool.lock

let rec drain pool job =
  let i = Atomic.fetch_and_add job.next 1 in
  if i < job.n then begin
    if run_item job i then finish pool job;
    drain pool job
  end

let has_work job = Atomic.get job.next < job.n

let worker pool =
  let rec loop () =
    Mutex.lock pool.lock;
    let rec await () =
      match List.find_opt has_work pool.jobs with
      | Some j -> Some j
      | None ->
        if pool.stop then None
        else begin
          Condition.wait pool.cond pool.lock;
          await ()
        end
    in
    match await () with
    | None -> Mutex.unlock pool.lock
    | Some j ->
      Mutex.unlock pool.lock;
      drain pool j;
      loop ()
  in
  loop ()

let create ~domains =
  if domains < 1 then invalid_arg "Wsn_parallel.Pool.create: domains must be >= 1";
  let pool =
    {
      lock = Mutex.create ();
      cond = Condition.create ();
      jobs = [];
      stop = false;
      workers = [];
      size = domains;
    }
  in
  pool.workers <- List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let shutdown pool =
  Mutex.lock pool.lock;
  pool.stop <- true;
  Condition.broadcast pool.cond;
  Mutex.unlock pool.lock;
  let workers = pool.workers in
  pool.workers <- [];
  List.iter Domain.join workers

let with_pool ~domains f =
  let pool = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let run_job pool ~n run =
  if n > 0 then begin
    let job =
      {
        run;
        n;
        next = Atomic.make 0;
        remaining = Atomic.make n;
        cancelled = Atomic.make false;
        error = Atomic.make None;
        finished = false;
      }
    in
    Mutex.lock pool.lock;
    if pool.stop then begin
      Mutex.unlock pool.lock;
      invalid_arg "Wsn_parallel.Pool: submission after shutdown"
    end;
    pool.jobs <- job :: pool.jobs;
    Condition.broadcast pool.cond;
    Mutex.unlock pool.lock;
    drain pool job;
    Mutex.lock pool.lock;
    while not job.finished do
      Condition.wait pool.cond pool.lock
    done;
    Mutex.unlock pool.lock;
    match Atomic.get job.error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let collect out =
  Array.map (function Some v -> v | None -> assert false) out

let map pool f xs =
  let n = Array.length xs in
  if pool.size <= 1 || n <= 1 then Array.map f xs
  else begin
    let out = Array.make n None in
    run_job pool ~n (fun i -> out.(i) <- Some (f (Array.unsafe_get xs i)));
    collect out
  end

let map_list pool f xs = Array.to_list (map pool f (Array.of_list xs))

(* Process-global pool.  The whole mutable state lives behind a single
   ref so [reset_after_fork] can replace it wholesale without touching
   a mutex that some other domain may have held at fork time. *)

type global_state = { glock : Mutex.t; mutable gpool : t option }

let gstate = ref { glock = Mutex.create (); gpool = None }

let gdomains = Atomic.make 1

let domains () = Atomic.get gdomains

let set_domains n =
  if n < 1 then invalid_arg "Wsn_parallel.Pool.set_domains: domains must be >= 1";
  let st = !gstate in
  Mutex.lock st.glock;
  let old = st.gpool in
  st.gpool <- None;
  Atomic.set gdomains n;
  Mutex.unlock st.glock;
  Option.iter shutdown old

let global () =
  let st = !gstate in
  Mutex.lock st.glock;
  let pool =
    match st.gpool with
    | Some p -> p
    | None ->
      let p = create ~domains:(Atomic.get gdomains) in
      st.gpool <- Some p;
      p
  in
  Mutex.unlock st.glock;
  pool

let reset_after_fork () =
  gstate := { glock = Mutex.create (); gpool = None };
  Atomic.set gdomains 1
