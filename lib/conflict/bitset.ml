type t = { n : int; w : int array }

let bits = 63

let word_bits = bits

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { n; w = Array.make (max 1 ((n + bits - 1) / bits)) 0 }

let capacity t = t.n

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: element out of range"

let mem t i =
  check t i;
  t.w.(i / bits) land (1 lsl (i mod bits)) <> 0

let add t i =
  check t i;
  t.w.(i / bits) <- t.w.(i / bits) lor (1 lsl (i mod bits))

let remove t i =
  check t i;
  t.w.(i / bits) <- t.w.(i / bits) land lnot (1 lsl (i mod bits))

let clear t = Array.fill t.w 0 (Array.length t.w) 0

let copy t = { t with w = Array.copy t.w }

let is_empty t = Array.for_all (fun w -> w = 0) t.w

let popcount_word w =
  let rec go acc w = if w = 0 then acc else go (acc + 1) (w land (w - 1)) in
  go 0 w

let popcount t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.w

let same_universe a b =
  if a.n <> b.n then invalid_arg "Bitset: capacity mismatch"

let inter_empty a b =
  same_universe a b;
  let rec go i = i >= Array.length a.w || (a.w.(i) land b.w.(i) = 0 && go (i + 1)) in
  go 0

let inter_popcount a b =
  same_universe a b;
  let acc = ref 0 in
  for i = 0 to Array.length a.w - 1 do
    acc := !acc + popcount_word (a.w.(i) land b.w.(i))
  done;
  !acc

let union_into ~dst s =
  same_universe dst s;
  for i = 0 to Array.length dst.w - 1 do
    dst.w.(i) <- dst.w.(i) lor s.w.(i)
  done

let iter f t =
  for wi = 0 to Array.length t.w - 1 do
    let w = ref t.w.(wi) in
    while !w <> 0 do
      let lsb = !w land -(!w) in
      let rec log2 b k = if b = 1 then k else log2 (b lsr 1) (k + 1) in
      f ((wi * bits) + log2 lsb 0);
      w := !w land (!w - 1)
    done
  done

let to_list t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc

let of_list n ls =
  let t = create n in
  List.iter (add t) ls;
  t

let words t = t.w
