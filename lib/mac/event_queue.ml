type 'a entry = { time : int; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable n : int;
  mutable next_seq : int;
  mutable hwm : int;  (* local high-water mark: gates the gauge update *)
}

module Telemetry = Wsn_telemetry.Registry

let m_events = Telemetry.counter "mac.events"

let m_queue_hwm = Telemetry.gauge "mac.queue_depth_hwm"

let dummy payload = { time = 0; seq = 0; payload }

let create () = { heap = [||]; n = 0; next_seq = 0; hwm = 0 }

let is_empty q = q.n = 0

let size q = q.n

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap q i j =
  let tmp = q.heap.(i) in
  q.heap.(i) <- q.heap.(j);
  q.heap.(j) <- tmp

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before q.heap.(i) q.heap.(parent) then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < q.n && before q.heap.(l) q.heap.(!smallest) then smallest := l;
  if r < q.n && before q.heap.(r) q.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

let schedule q ~time payload =
  if time < 0 then invalid_arg "Event_queue.schedule: negative time";
  if q.n = Array.length q.heap then begin
    let cap = max 16 (2 * Array.length q.heap) in
    let bigger = Array.make cap (dummy payload) in
    Array.blit q.heap 0 bigger 0 q.n;
    q.heap <- bigger
  end;
  q.heap.(q.n) <- { time; seq = q.next_seq; payload };
  q.next_seq <- q.next_seq + 1;
  q.n <- q.n + 1;
  (* The gauge is a CAS loop; only touch it when this queue actually
     grows past its own high-water mark, not on every schedule. *)
  if q.n > q.hwm then begin
    q.hwm <- q.n;
    Telemetry.set_max m_queue_hwm (float_of_int q.n)
  end;
  sift_up q (q.n - 1)

let next_time q = if q.n = 0 then None else Some q.heap.(0).time

let rec drain_until q ~time f =
  if q.n > 0 && q.heap.(0).time <= time then begin
    let top = q.heap.(0) in
    Telemetry.incr m_events;
    q.n <- q.n - 1;
    if q.n > 0 then begin
      q.heap.(0) <- q.heap.(q.n);
      sift_down q 0
    end;
    f top.time top.payload;
    drain_until q ~time f
  end
