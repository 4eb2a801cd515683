(* Bucket 0 is the underflow bucket [0, base]; bucket i >= 1 covers
   (base * g^(i-1), base * g^i] with g = 2^(1/8). *)

let base = 1e-3
let log_g = log 2.0 /. 8.0

type t = {
  counts : (int, int) Hashtbl.t;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  {
    counts = Hashtbl.create 32;
    count = 0;
    sum = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
  }

let bucket_of v =
  if v <= base then 0
  else
    let i = 1 + int_of_float (Float.floor (log (v /. base) /. log_g)) in
    (* Guard against v sitting exactly on a boundary where floating-point
       rounding pushes it one bucket high. *)
    if base *. exp (float_of_int (i - 1) *. log_g) >= v then i - 1 else i

let upper_bound i =
  if i = 0 then base else base *. exp (float_of_int i *. log_g)

let add t v =
  let v = Float.max 0.0 v in
  let b = bucket_of v in
  Hashtbl.replace t.counts b
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts b));
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.count
let sum t = t.sum
let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count
let min_value t = if t.count = 0 then 0.0 else t.min_v
let max_value t = if t.count = 0 then 0.0 else t.max_v

let sorted_buckets t =
  Hashtbl.fold (fun b n acc -> (b, n) :: acc) t.counts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let percentile t p =
  if t.count = 0 then 0.0
  else begin
    let p = Float.min 100.0 (Float.max 0.0 p) in
    let rank =
      Stdlib.max 1
        (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.count)))
    in
    if rank = 1 then t.min_v
    else if rank = t.count then t.max_v
    else
    let rec walk acc = function
      | [] -> t.max_v
      | (b, n) :: rest ->
          if acc + n >= rank then upper_bound b else walk (acc + n) rest
    in
    let v = walk 0 (sorted_buckets t) in
    Float.min t.max_v (Float.max t.min_v v)
  end
