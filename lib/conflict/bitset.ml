type t = { n : int; w : int array }

let bits = 63

let word_bits = bits

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { n; w = Array.make (max 1 ((n + bits - 1) / bits)) 0 }

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

let popcount_word w =
  let rec go acc w = if w = 0 then acc else go (acc + 1) (w land (w - 1)) in
  go 0 w

let same_universe a b =
  if a.n <> b.n then invalid_arg "Bitset: capacity mismatch"

let inter_empty a b =
  same_universe a b;
  let n = Array.length a.w in
  let i = ref 0 in
  while !i < n && a.w.(!i) land b.w.(!i) = 0 do
    incr i
  done;
  !i = n

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

let lowest_bit w =
  let n = ref 0 and w = ref w in
  if !w land 0xFFFFFFFF = 0 then begin n := 32; w := !w lsr 32 end;
  if !w land 0xFFFF = 0 then begin n := !n + 16; w := !w lsr 16 end;
  if !w land 0xFF = 0 then begin n := !n + 8; w := !w lsr 8 end;
  if !w land 0xF = 0 then begin n := !n + 4; w := !w lsr 4 end;
  if !w land 0x3 = 0 then begin n := !n + 2; w := !w lsr 2 end;
  if !w land 0x1 = 0 then !n + 1 else !n

let iter f t =
  for wi = 0 to Array.length t.w - 1 do
    let w = ref t.w.(wi) in
    while !w <> 0 do
      f ((wi * bits) + lowest_bit !w);
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
