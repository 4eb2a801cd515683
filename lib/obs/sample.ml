module Rng = Fbufs_sim.Rng

module Reservoir = struct
  type 'a slot = { key : float; seq : int; item : 'a }

  (* A-ExpJ over a binary min-heap: once the reservoir is full, a
     pre-drawn weight budget (the skip, held by the caller) decides how
     much total weight passes untouched before the next replacement, so
     the common case per item is one subtraction and one comparison —
     no RNG draw, no transcendental, no scan. Replacements (expected
     k·ln(n/k) over a run) pay the O(log k) sift. *)
  type 'a t = {
    rng : Rng.t;
    slots : 'a slot option array;  (* min-heap by key over [0, filled) *)
    mutable filled : int;
    mutable offered : int;
  }

  let create ~seed ~k =
    if k <= 0 then invalid_arg "Reservoir.create: k must be positive";
    {
      rng = Rng.create seed;
      slots = Array.make k None;
      filled = 0;
      offered = 0;
    }

  let key_at t i = match t.slots.(i) with Some s -> s.key | None -> infinity

  let swap t i j =
    let tmp = t.slots.(i) in
    t.slots.(i) <- t.slots.(j);
    t.slots.(j) <- tmp

  let rec sift_up t i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if key_at t i < key_at t p then begin
        swap t i p;
        sift_up t p
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let s = ref i in
    if l < t.filled && key_at t l < key_at t !s then s := l;
    if r < t.filled && key_at t r < key_at t !s then s := r;
    if !s <> i then begin
      swap t i !s;
      sift_down t !s
    end

  (* u in (0,1]: avoid u = 0, which would collapse every weight. *)
  let u01 t = 1.0 -. Rng.float t.rng 1.0

  let draw_skip t =
    (* Threshold is the smallest retained key; clamp away from 1 so the
       log below cannot vanish when a key drew exactly 1. *)
    let tw = Float.min (key_at t 0) (1.0 -. 1e-12) in
    Float.log (u01 t) /. Float.log tw

  (* The caller owns the skip budget (decrementing it by each event's
     weight inline, with no call and no allocation) and only invokes
     [accept_weighted] when the budget reaches zero — i.e. when the item
     is retained. Returns the next skip budget: 0.0 while the reservoir
     is still filling (so every item is an acceptance), the freshly
     drawn A-ExpJ skip after that. *)
  let accept_weighted t ~weight item =
    t.offered <- t.offered + 1;
    let w = Float.max weight 1e-9 in
    let k = Array.length t.slots in
    if t.filled < k then begin
      (* u^(1/w) as exp(log u / w): one log + one exp beats pow's
         extended-precision path, and keys only order the heap. *)
      let key = Float.exp (Float.log (u01 t) /. w) in
      t.slots.(t.filled) <- Some { key; seq = t.offered; item };
      t.filled <- t.filled + 1;
      sift_up t (t.filled - 1);
      if t.filled = k then draw_skip t else 0.0
    end
    else begin
      (* Replace the minimum; the new key is drawn from (Tw^w, 1] so
         the retained set is distributed exactly as A-Res would have
         it (Efraimidis & Spirakis, A-ExpJ). *)
      let tw = Float.min (key_at t 0) (1.0 -. 1e-12) in
      let lo = Float.exp (w *. Float.log tw) in
      let u = lo +. ((1.0 -. lo) *. u01 t) in
      let key = Float.exp (Float.log u /. w) in
      t.slots.(0) <- Some { key; seq = t.offered; item };
      sift_down t 0;
      draw_skip t
    end

  let offered t = t.offered

  let items t =
    Array.to_list (Array.sub t.slots 0 t.filled)
    |> List.filter_map Fun.id
    |> List.sort (fun a b -> compare a.seq b.seq)
    |> List.map (fun s -> s.item)
end
