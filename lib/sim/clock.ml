type t = { mutable now : float }

let create () = { now = 0.0 }

let now c = c.now

let advance c us =
  if us < 0.0 then invalid_arg "Clock.advance: negative increment";
  c.now <- c.now +. us

(* The product is formed here, not by the caller: a float passed to
   another module's function is boxed (no flambda, [-opaque]), while [n]
   and an already-boxed [us] are not. Same operations, same order, as
   [advance c (float_of_int n *. us)]. *)
let advance_n c n us =
  let d = float_of_int n *. us in
  if d < 0.0 then invalid_arg "Clock.advance: negative increment";
  c.now <- c.now +. d

let advance_to c t = if t > c.now then c.now <- t

let reset c = c.now <- 0.0
