type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 16 0; n = 0 }

let length t = t.n

let clear t = t.n <- 0

let push t v =
  if t.n = Array.length t.a then begin
    let bigger = Array.make (2 * Array.length t.a) 0 in
    Array.blit t.a 0 bigger 0 t.n;
    t.a <- bigger
  end;
  t.a.(t.n) <- v;
  t.n <- t.n + 1

let get t i =
  if i < 0 || i >= t.n then invalid_arg "Int_buf.get: index out of range";
  t.a.(i)

let to_sorted_array t =
  let out = Array.sub t.a 0 t.n in
  Array.sort Int.compare out;
  out
