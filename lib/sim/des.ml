(* A binary min-heap on (time, seq) kept in parallel arrays: the times in
   a flat float array, the sequence numbers and the closures beside
   them, so scheduling and dispatch allocate nothing once the arrays
   have grown. (time, seq) is a total order (seq is unique), so the
   dispatch order is the same as any other heap's. Sifting swaps slots;
   a float moves through an immutable local, which stays unboxed. *)

(* All-float record: [now] is stored flat, not boxed per dispatch. *)
type clock = { mutable now : float }

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable fns : (unit -> unit) array;
  mutable size : int;
  clock : clock;
  mutable next_seq : int;
}

let initial = 64

let create () =
  {
    times = Array.make initial 0.0;
    seqs = Array.make initial 0;
    fns = Array.make initial ignore;
    size = 0;
    clock = { now = 0.0 };
    next_seq = 0;
  }

let now t = t.clock.now

let pending t = t.size

(* Whether slot [i] dispatches before slot [j]. *)
let before t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let ti = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- ti;
  let si = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- si;
  let fi = t.fns.(i) in
  t.fns.(i) <- t.fns.(j);
  t.fns.(j) <- fi

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.size && before t l i then l else i in
  let smallest = if r < t.size && before t r smallest then r else smallest in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

let grow t =
  let cap = 2 * t.size in
  let times = Array.make cap 0.0
  and seqs = Array.make cap 0
  and fns = Array.make cap ignore in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.fns 0 fns 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.fns <- fns

(* Claims the next slot for [fn] with the next sequence number; the
   caller stores the time and sifts the slot up. *)
let claim t fn =
  if t.size = Array.length t.seqs then grow t;
  let i = t.size in
  t.size <- i + 1;
  t.seqs.(i) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.fns.(i) <- fn;
  i

let too_early time now =
  invalid_arg
    (Printf.sprintf "Des.schedule: time %.3f is before now %.3f" time now)

let schedule t time fn =
  if time < t.clock.now then too_early time t.clock.now;
  let i = claim t fn in
  t.times.(i) <- time;
  sift_up t i

(* The same as [schedule t (now t +. delta) fn], written out so the sum
   is stored without being boxed. *)
let schedule_after t delta fn =
  let time = t.clock.now +. delta in
  if time < t.clock.now then too_early time t.clock.now;
  let i = claim t fn in
  t.times.(i) <- time;
  sift_up t i

let step t =
  if t.size = 0 then false
  else begin
    let fn = t.fns.(0) in
    t.clock.now <- t.times.(0);
    let last = t.size - 1 in
    t.size <- last;
    if last > 0 then begin
      t.times.(0) <- t.times.(last);
      t.seqs.(0) <- t.seqs.(last);
      t.fns.(0) <- t.fns.(last)
    end;
    t.fns.(last) <- ignore;
    sift_down t 0;
    fn ();
    true
  end

let run ?(limit = 10_000_000) t =
  let rec loop n =
    if n > limit then failwith "Des.run: event limit exceeded"
    else if step t then loop (n + 1)
  in
  loop 0
