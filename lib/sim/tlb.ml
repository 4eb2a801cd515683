(* Open-addressed int -> int map, used twice below: as the tag index (tag
   key -> TLB slot) and as the deferred-shootdown queue (tag key -> pmap
   word). Fibonacci hashing and linear probing; a deletion shifts the
   rest of its probe run back into the hole, so there are no tombstones,
   and the arrays double when half full. Keys and values are
   non-negative; [-1] marks an empty slot. Nothing allocates once the
   arrays have grown to the table's peak. Much cheaper per operation than
   a generic [Hashtbl]: IPC domain crossings probe and insert dozens of
   entries each, so this sits on the simulator's hottest path. *)
module Table = struct
  type t = {
    mutable keys : int array;
    mutable words : int array;
    mutable mask : int;
    mutable count : int;
  }

  let create cap =
    {
      keys = Array.make cap (-1);
      words = Array.make cap 0;
      mask = cap - 1;
      count = 0;
    }

  let mix k =
    let h = k * 0x2545F4914F6CDD1D in
    h lxor (h lsr 29)

  (* The slot holding [k], or the empty slot that ends its probe run.
     This and the other loops are top-level functions taking the table
     and key as arguments: a local [loop] closing over them would be a
     fresh closure on every probe. *)
  let rec slot_from t k i =
    let x = Array.unsafe_get t.keys i in
    if x = k || x = -1 then i else slot_from t k ((i + 1) land t.mask)

  let slot t k = slot_from t k (mix k land t.mask)

  let find t k =
    let i = slot t k in
    if Array.unsafe_get t.keys i = -1 then -1 else Array.unsafe_get t.words i

  let rec replace t k w =
    let i = slot t k in
    if t.keys.(i) = k then t.words.(i) <- w else insert_at t i k w

  (* Add [k], absent, at [i], the empty slot that ends its probe run. *)
  and insert_at t i k w =
    if 2 * (t.count + 1) > t.mask + 1 then begin
      grow t;
      replace t k w
    end
    else begin
      t.keys.(i) <- k;
      t.words.(i) <- w;
      t.count <- t.count + 1
    end

  and grow t =
    let keys = t.keys and words = t.words in
    let cap = 2 * Array.length keys in
    t.keys <- Array.make cap (-1);
    t.words <- Array.make cap 0;
    t.mask <- cap - 1;
    t.count <- 0;
    for i = 0 to Array.length keys - 1 do
      if keys.(i) <> -1 then replace t keys.(i) words.(i)
    done

  (* Fill the hole at [hole] from the probe run after it: the entry at
     [j] may move back into the hole only if the hole lies on its probe
     path, i.e. its home slot is no nearer to [j] than the hole is. *)
  let rec shift t hole j =
    let k = Array.unsafe_get t.keys j in
    if k = -1 then t.keys.(hole) <- -1
    else if (j - (mix k land t.mask)) land t.mask >= (j - hole) land t.mask
    then begin
      t.keys.(hole) <- k;
      t.words.(hole) <- t.words.(j);
      shift t j ((j + 1) land t.mask)
    end
    else shift t hole ((j + 1) land t.mask)

  let remove_at t i =
    t.count <- t.count - 1;
    shift t i ((i + 1) land t.mask)

  let remove t k =
    let i = slot t k in
    if t.keys.(i) <> -1 then remove_at t i
end

type entry = {
  mutable valid : bool;
  mutable asid : int;
  mutable vpn : int;
  mutable writable : bool;
}

(* [index] maps the (asid, vpn) tag of every valid slot to its slot
   number, so probes and shootdowns are O(1) instead of a scan over the
   whole array. Invariants: a tag is in [index] iff its slot is valid,
   and [valid_count] equals the number of valid slots. *)
type t = {
  slots : entry array;
  rng : Rng.t;
  index : Table.t;
  mutable valid_count : int;
  pending : Table.t; (* deferred shootdowns: tag key -> pmap word *)
  mutable queued : int array;
  mutable nqueued : int;
      (* the keys in [pending], once each, in [queued.(0 .. nqueued - 1)] *)
  mutable npending : int; (* keys in [pending] whose word is not [-1] *)
}

type probe_result = Hit | Hit_readonly | Miss

let key ~asid ~vpn = (asid lsl 40) + vpn
let vpn_mask = (1 lsl 40) - 1

(* Top level: a local recursion over [entries] would be a closure per
   TLB. *)
let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (c * 2)

let create ?(entries = 64) rng =
  if entries <= 0 then invalid_arg "Tlb.create: entries must be positive";
  (* The index never holds more tags than there are slots, so at 8x the
     slot count it stays under 1/8 full and never grows. *)
  {
    slots =
      Array.init entries (fun _ ->
          { valid = false; asid = 0; vpn = 0; writable = false });
    rng;
    index = Table.create (pow2_at_least (8 * entries) 16);
    valid_count = 0;
    pending = Table.create 128;
    queued = [||];
    nqueued = 0;
    npending = 0;
  }

let entries t = Array.length t.slots

let rec first_invalid t i =
  if t.slots.(i).valid then first_invalid t (i + 1) else i

let probe t ~asid ~vpn ~write =
  let i = Table.find t.index (key ~asid ~vpn) in
  if i = -1 then Miss
  else if write && not (Array.unsafe_get t.slots i).writable then Hit_readonly
  else Hit

let insert t ~asid ~vpn ~writable =
  let k = key ~asid ~vpn in
  let i = Table.find t.index k in
  let e =
    if i <> -1 then t.slots.(i)
    else begin
      let n = Array.length t.slots in
      (* Prefer the lowest-numbered invalid slot; otherwise evict a random
         victim, as the R3000 'tlbwr' (write-random) refill idiom does.
         The scan only runs while the TLB has free capacity; in steady
         state it is skipped. *)
      let victim =
        if t.valid_count < n then first_invalid t 0 else Rng.int t.rng n
      in
      let e = t.slots.(victim) in
      if e.valid then Table.remove t.index (key ~asid:e.asid ~vpn:e.vpn)
      else t.valid_count <- t.valid_count + 1;
      Table.replace t.index k victim;
      e.valid <- true;
      e.asid <- asid;
      e.vpn <- vpn;
      e
    end
  in
  e.writable <- writable

let invalidate_key t k =
  let ix = t.index in
  let j = Table.slot ix k in
  if ix.keys.(j) <> -1 then begin
    t.slots.(ix.words.(j)).valid <- false;
    t.valid_count <- t.valid_count - 1;
    Table.remove_at ix j
  end

let invalidate t ~asid ~vpn = invalidate_key t (key ~asid ~vpn)
let valid_entries t = t.valid_count

let iter_live t f =
  Array.iter
    (fun e -> if e.valid then f ~asid:e.asid ~vpn:e.vpn ~writable:e.writable)
    t.slots

(* -- deferred-shootdown queue ------------------------------------------ *)

(* A cancelled shootdown keeps its key in [pending] with the word [-1],
   which reads as absent, until the next drain: so a key re-deferred
   before then is still listed, and [queued] lists each key of the table
   exactly once. The drain and [iter_pending] walk that list, in
   proportion to the tags queued since the last drain. The table never
   holds more keys than half its capacity, so the list is made at the
   first defer half as long as the table, and when the table grows the
   list takes over the key array it drops, half as long as the new one:
   a TLB that never defers pays nothing for the list, and a growing
   queue allocates nothing more for it. *)
let defer t ~asid ~vpn ~pte =
  let q = t.pending and k = key ~asid ~vpn in
  let i = Table.slot q k in
  if q.Table.keys.(i) = k then begin
    if q.Table.words.(i) = -1 then t.npending <- t.npending + 1;
    q.Table.words.(i) <- pte
  end
  else begin
    let dropped = q.Table.keys in
    Table.insert_at q i k pte;
    if q.Table.keys != dropped then begin
      Array.blit t.queued 0 dropped 0 t.nqueued;
      t.queued <- dropped
    end
    else if Array.length t.queued = 0 then
      t.queued <- Array.make ((q.Table.mask + 1) / 2) 0;
    t.queued.(t.nqueued) <- k;
    t.nqueued <- t.nqueued + 1;
    t.npending <- t.npending + 1
  end

let find_pending t ~asid ~vpn = Table.find t.pending (key ~asid ~vpn)
let pending_covers t ~asid ~vpn = find_pending t ~asid ~vpn <> -1

let cancel_pending t ~asid ~vpn =
  let q = t.pending in
  let i = Table.slot q (key ~asid ~vpn) in
  if q.Table.keys.(i) <> -1 && q.Table.words.(i) <> -1 then begin
    q.Table.words.(i) <- -1;
    t.npending <- t.npending - 1
  end

let pending_count t = t.npending

let iter_key t f k =
  let pte = Table.find t.pending k in
  if pte <> -1 then f ~asid:(k lsr 40) ~vpn:(k land vpn_mask) ~pte

let iter_pending t f =
  for j = 0 to t.nqueued - 1 do
    iter_key t f t.queued.(j)
  done

(* Take the listed keys out of the table, invalidating the ones not
   cancelled. *)
let rec drain_listed t j =
  if j < t.nqueued then begin
    let q = t.pending and k = t.queued.(j) in
    let i = Table.slot q k in
    if q.Table.words.(i) <> -1 then invalidate_key t k;
    Table.remove_at q i;
    drain_listed t (j + 1)
  end

(* Every crossing drains, and the queue is almost always empty: then
   this is one comparison. The order in which queued tags are
   invalidated is not observable: each clears its own slot, and victim
   choice reads only slot validity and the RNG. *)
let invalidate_pending t =
  let n = t.npending in
  if t.nqueued > 0 then begin
    drain_listed t 0;
    t.nqueued <- 0;
    t.npending <- 0
  end;
  n
