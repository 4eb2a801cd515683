(* Dense slab-backed page table: vpn -> non-negative int word.

   Mapped virtual pages cluster into a handful of contiguous ranges (the
   private area, the fbuf region), so the table is a hashtable of dense
   slabs of [1 lsl slab_bits] pages each. Point lookups are one (usually
   memoized) slab resolution plus an array index; range traversals touch
   the hashtable once per slab crossed, not once per page.

   The single-slab memo makes sequential range walks O(1) amortized per
   page: consecutive vpns hit the same slab until the walk crosses a slab
   boundary.

   Entries are immediate ints, [-1] in an empty slot, as a hardware page
   table holds one word per slot: writing an entry stores an int in
   place, where an ['a option] slot would allocate a block per write. *)

type t = {
  slab_bits : int;
  slabs : (int, int array) Hashtbl.t;
  mutable count : int;
  mutable memo_id : int; (* slab id of [memo_slab]; min_int = no memo *)
  mutable memo_slab : int array;
}

let create ?(slab_bits = 9) () =
  if slab_bits < 1 || slab_bits > 20 then
    invalid_arg "Ptable.create: slab_bits out of range";
  {
    slab_bits;
    slabs = Hashtbl.create 16;
    count = 0;
    memo_id = min_int;
    memo_slab = [||];
  }

let idx t vpn = vpn land ((1 lsl t.slab_bits) - 1)

(* Existing slab holding [vpn], or the empty array when there is none
   (real slabs are never empty). Not an option: a [Some] per lookup would
   be a heap block on every translation. *)
let slab_of t vpn =
  let id = vpn lsr t.slab_bits in
  if id = t.memo_id then t.memo_slab
  else
    match Hashtbl.find t.slabs id with
    | s ->
        t.memo_id <- id;
        t.memo_slab <- s;
        s
    | exception Not_found -> [||]

(* Slab holding [vpn], created on demand. *)
let slab_for t vpn =
  match slab_of t vpn with
  | [||] ->
      let id = vpn lsr t.slab_bits in
      let s = Array.make (1 lsl t.slab_bits) (-1) in
      Hashtbl.add t.slabs id s;
      t.memo_id <- id;
      t.memo_slab <- s;
      s
  | s -> s

let find t vpn =
  if vpn < 0 then -1
  else
    match slab_of t vpn with
    | [||] -> -1
    (* [idx] masks into the slab, so the access is in range. *)
    | s -> Array.unsafe_get s (idx t vpn)

let mem t vpn = find t vpn <> -1

let set t vpn w =
  if vpn < 0 then invalid_arg "Ptable.set: negative vpn";
  if w < 0 then invalid_arg "Ptable.set: negative word";
  let s = slab_for t vpn in
  let i = idx t vpn in
  if Array.unsafe_get s i = -1 then t.count <- t.count + 1;
  Array.unsafe_set s i w

let remove t vpn =
  if vpn >= 0 then
    match slab_of t vpn with
    | [||] -> ()
    | s ->
        let i = idx t vpn in
        if Array.unsafe_get s i <> -1 then begin
          t.count <- t.count - 1;
          Array.unsafe_set s i (-1)
        end

let length t = t.count
