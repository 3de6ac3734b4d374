type t = { x : float; y : float }

let make x y = { x; y }

let distance a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  sqrt ((dx *. dx) +. (dy *. dy))
