(* Geometric buckets: observation [v > 0] falls in bucket
   [floor (10 * log10 v)], so bucket [k] covers [10^(k/10), 10^((k+1)/10))
   and its representative is the geometric midpoint [10^((k+0.5)/10)].
   Ten buckets per decade keeps worst-case relative quantile error at
   ~12% while the table stays tiny for any realistic value range. *)

let buckets_per_decade = 10.0

(* Underflow bucket for zero/negative/non-finite observations. *)
let zero_bucket = min_int

type t = {
  buckets : (int, int ref) Hashtbl.t;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  { buckets = Hashtbl.create 32; count = 0; sum = 0.0; min_v = nan; max_v = nan }

let bucket_of v =
  if Float.is_nan v || v <= 0.0 then zero_bucket
  else if v = infinity then max_int
  else int_of_float (Float.floor (buckets_per_decade *. Float.log10 v))

let representative idx =
  if idx = zero_bucket then 0.0
  else if idx = max_int then infinity
  else Float.pow 10.0 ((float_of_int idx +. 0.5) /. buckets_per_decade)

let observe h v =
  let idx = bucket_of v in
  (match Hashtbl.find_opt h.buckets idx with
   | Some r -> incr r
   | None -> Hashtbl.add h.buckets idx (ref 1));
  h.count <- h.count + 1;
  if Float.is_nan v then ()
  else begin
    h.sum <- h.sum +. v;
    if Float.is_nan h.min_v || v < h.min_v then h.min_v <- v;
    if Float.is_nan h.max_v || v > h.max_v then h.max_v <- v
  end

let count h = h.count

let sum h = h.sum

let min_value h = h.min_v

let max_value h = h.max_v

let quantile h q =
  if h.count = 0 then nan
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    (* Nearest-rank on the bucketed distribution. *)
    let rank = Float.max 1.0 (Float.round (q *. float_of_int h.count)) in
    let sorted =
      Hashtbl.fold (fun idx r acc -> (idx, !r) :: acc) h.buckets []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    let rec walk seen = function
      | [] -> h.max_v
      | (idx, n) :: rest ->
        let seen = seen + n in
        if float_of_int seen >= rank then representative idx else walk seen rest
    in
    let raw = walk 0 sorted in
    (* Clamp into the exact observed range: tightens bucket error at the
       tails and makes constant data report itself exactly. *)
    if Float.is_nan h.min_v then raw else Float.max h.min_v (Float.min h.max_v raw)
  end

let percentile h p =
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg "Histogram.percentile: percentile must be in [0, 100]";
  quantile h (p /. 100.0)

let clear h =
  Hashtbl.reset h.buckets;
  h.count <- 0;
  h.sum <- 0.0;
  h.min_v <- nan;
  h.max_v <- nan
