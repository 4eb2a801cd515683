(* Fibonacci hashing, shared by both open-addressed tables in this file;
   each masks the result to its own capacity. *)
let mix k =
  let h = k * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* Open-addressed int -> int map used as the TLB's tag index. Linear
   probing with tombstones and Fibonacci hashing; the capacity is fixed at
   8x the TLB size (live entries never exceed the number of slots, so the
   load factor stays under 1/8 and probe chains are short), and a
   full in-place rehash runs when tombstones fill half the table, which
   amortizes to O(1) per deletion. Much cheaper per operation than a
   generic [Hashtbl]: IPC domain crossings insert dozens of entries each,
   so this sits on the simulator's hottest path.

   Values are TLB slot numbers and each is bound to at most one key, so
   the table also keeps the inverse map [inv] : value -> table slot.
   Deleting by value ([remove_value], the eviction/shootdown path) is then
   a direct tombstone write with no probe at all. [inv] entries are only
   meaningful for live values; rehash rebuilds them as it reinserts. *)
module Itab = struct
  type t = {
    key : int array;
    value : int array;
    inv : int array; (* value -> slot holding it, for live values *)
    state : Bytes.t; (* '\000' empty, '\001' live, '\002' tombstone *)
    mask : int;
    mutable live : int;
    mutable used : int; (* live + tombstones *)
  }

  let create ~capacity_for =
    let rec pow2 c = if c >= 8 * capacity_for then c else pow2 (c * 2) in
    let cap = pow2 16 in
    {
      key = Array.make cap 0;
      value = Array.make cap 0;
      inv = Array.make capacity_for (-1);
      state = Bytes.make cap '\000';
      mask = cap - 1;
      live = 0;
      used = 0;
    }

  let slot_of t k = mix k land t.mask

  (* The probe loops here and below are top-level functions taking the
     table and key as arguments: a local [loop] closing over them would be
     a fresh closure on every probe, and every domain crossing probes and
     inserts dozens of entries. *)
  let rec find_from t k i =
    match Bytes.unsafe_get t.state i with
    | '\000' -> -1
    | '\001' when Array.unsafe_get t.key i = k -> Array.unsafe_get t.value i
    | _ -> find_from t k ((i + 1) land t.mask)

  let find t k = find_from t k (slot_of t k)

  (* Track the first tombstone on the probe path so deleted slots are
     recycled; fall through to it only once the key is known absent. *)
  let rec replace_from t k v i tomb =
    match Bytes.unsafe_get t.state i with
    | '\001' when Array.unsafe_get t.key i = k ->
        t.value.(i) <- v;
        t.inv.(v) <- i
    | '\000' ->
        if tomb >= 0 then begin
          t.key.(tomb) <- k;
          t.value.(tomb) <- v;
          t.inv.(v) <- tomb;
          Bytes.set t.state tomb '\001';
          t.live <- t.live + 1
        end
        else if 2 * (t.used + 1) > t.mask + 1 then begin
          rehash t;
          replace t k v
        end
        else begin
          t.key.(i) <- k;
          t.value.(i) <- v;
          t.inv.(v) <- i;
          Bytes.set t.state i '\001';
          t.live <- t.live + 1;
          t.used <- t.used + 1
        end
    | '\002' when tomb < 0 -> replace_from t k v ((i + 1) land t.mask) i
    | _ -> replace_from t k v ((i + 1) land t.mask) tomb

  and replace t k v = replace_from t k v (slot_of t k) (-1)

  and rehash t =
    let cap = t.mask + 1 in
    let old_key = Array.copy t.key and old_val = Array.copy t.value in
    let old_state = Bytes.copy t.state in
    Bytes.fill t.state 0 cap '\000';
    t.live <- 0;
    t.used <- 0;
    for i = 0 to cap - 1 do
      if Bytes.get old_state i = '\001' then replace t old_key.(i) old_val.(i)
    done

  (* Revert the tombstones ending at [j] to empty. *)
  let rec clean t j =
    if Bytes.unsafe_get t.state j = '\002' then begin
      Bytes.set t.state j '\000';
      t.used <- t.used - 1;
      clean t ((j - 1) land t.mask)
    end

  (* Delete the binding whose value is [v]. The caller guarantees [v] is
     currently bound (the TLB only evicts/invalidates valid entries), so
     this is one array read and a tombstone write — no probe. *)
  let remove_value t v =
    let i = t.inv.(v) in
    Bytes.set t.state i '\002';
    t.live <- t.live - 1;
    (* If the probe chain ends right after [i], this tombstone (and any
       tombstones immediately preceding it) can revert to empty: no lookup
       can terminate early because of them. At low load this reclaims
       almost every deletion in place, so the tombstone-triggered rehash
       almost never runs. *)
    if Bytes.unsafe_get t.state ((i + 1) land t.mask) = '\000' then clean t i

  let clear t =
    Bytes.fill t.state 0 (t.mask + 1) '\000';
    t.live <- 0;
    t.used <- 0
end

(* The deferred-shootdown queue: an open-addressed int -> int map from
   tag key to the pmap word of the translation whose shootdown is
   queued. Unlike [Itab] it has no inverse map, deletes by key, and grows
   with the queue, so it is a table of its own: linear probing where a
   deletion shifts the rest of its probe run back into the hole (no
   tombstones), and the arrays double when half full. Keys are
   non-negative; [-1] marks an empty slot. Nothing allocates once the
   arrays have grown to the queue's peak. *)
module Pending = struct
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

  (* The slot holding [k], or the empty slot that ends its probe run. *)
  let rec slot_from t k i =
    let x = Array.unsafe_get t.keys i in
    if x = k || x = -1 then i else slot_from t k ((i + 1) land t.mask)

  let slot t k = slot_from t k (mix k land t.mask)

  let find t k =
    let i = slot t k in
    if Array.unsafe_get t.keys i = -1 then -1 else Array.unsafe_get t.words i

  let mem t k = Array.unsafe_get t.keys (slot t k) <> -1

  let rec replace t k w =
    let i = slot t k in
    if t.keys.(i) = k then t.words.(i) <- w
    else if 2 * (t.count + 1) > t.mask + 1 then begin
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

  let clear t =
    Array.fill t.keys 0 (Array.length t.keys) (-1);
    t.count <- 0
end

type entry = {
  mutable valid : bool;
  mutable asid : int;
  mutable vpn : int;
  mutable writable : bool;
  mutable gen : int;  (* generation of the owning asid at insert time *)
}

(* [index] maps the (asid, vpn) tag of every *tagged* slot (live or
   generation-stale) to its slot number, so probes and shootdowns are O(1)
   instead of a scan over the whole array. An entry is *live* only when it
   is valid and its [gen] matches the owning asid's current generation
   word; a generation bump ([flush_asid]) makes every entry of that asid
   stale in O(1) without touching slots or index — stale entries are
   reclaimed lazily when a probe or insert next lands on them.
   Invariants: a tag is in [index] iff its slot is valid (possibly stale),
   [valid_count] equals the number of *live* slots, and [asid_live.(a)]
   equals the number of live slots tagged with asid [a]. *)
type t = {
  slots : entry array;
  rng : Rng.t;
  index : Itab.t;
  mutable valid_count : int;
  mutable asid_gen : int array; (* per-asid generation word, grows on demand *)
  mutable asid_live : int array; (* per-asid live-entry count *)
  gen_limit : int;
  pending : Pending.t; (* deferred shootdowns: tag key -> pmap word *)
}

type probe_result = Hit | Hit_readonly | Miss

let key ~asid ~vpn = (asid lsl 40) + vpn
let vpn_mask = (1 lsl 40) - 1

let create ?(entries = 64) ?(gen_limit = 1 lsl 20) rng =
  if entries <= 0 then invalid_arg "Tlb.create: entries must be positive";
  if gen_limit < 2 then invalid_arg "Tlb.create: gen_limit must be >= 2";
  let slots =
    Array.init entries (fun _ ->
        { valid = false; asid = 0; vpn = 0; writable = false; gen = 0 })
  in
  {
    slots;
    rng;
    index = Itab.create ~capacity_for:entries;
    valid_count = 0;
    asid_gen = Array.make 16 0;
    asid_live = Array.make 16 0;
    gen_limit;
    pending = Pending.create 128;
  }

let entries t = Array.length t.slots

let ensure_asid t asid =
  let n = Array.length t.asid_gen in
  if asid >= n then begin
    let n' = max (asid + 1) (2 * n) in
    let grow a =
      let a' = Array.make n' 0 in
      Array.blit a 0 a' 0 n;
      a'
    in
    t.asid_gen <- grow t.asid_gen;
    t.asid_live <- grow t.asid_live
  end

let gen_for t asid =
  if asid < Array.length t.asid_gen then t.asid_gen.(asid) else 0

let generation t ~asid = gen_for t asid
let is_live t e = e.valid && e.gen = gen_for t e.asid

(* Clear a tagged slot. Stale entries were already subtracted from the
   live counts at their generation bump, so only live ones adjust them. *)
let clear_slot t i =
  let e = t.slots.(i) in
  Itab.remove_value t.index i;
  if is_live t e then begin
    t.valid_count <- t.valid_count - 1;
    t.asid_live.(e.asid) <- t.asid_live.(e.asid) - 1
  end;
  e.valid <- false

let rec first_not_live t i =
  if is_live t t.slots.(i) then first_not_live t (i + 1) else i

let probe t ~asid ~vpn ~write =
  let i = Itab.find t.index (key ~asid ~vpn) in
  if i = -1 then Miss
  else
    let e = Array.unsafe_get t.slots i in
    if e.gen <> gen_for t e.asid then begin
      (* Stale under a bumped generation: reclaim the slot lazily. *)
      clear_slot t i;
      Miss
    end
    else if write && not e.writable then Hit_readonly
    else Hit

let insert t ~asid ~vpn ~writable =
  ensure_asid t asid;
  let k = key ~asid ~vpn in
  let i =
    match Itab.find t.index k with
    | -1 ->
        let n = Array.length t.slots in
        (* Prefer the lowest-numbered non-live slot (invalid or stale);
           otherwise evict a random victim, as the R3000 'tlbwr'
           (write-random) refill idiom does. The scan only runs while the
           TLB has free capacity (or right after a flush); in steady state
           it is skipped. *)
        let victim =
          if t.valid_count < n then first_not_live t 0 else Rng.int t.rng n
        in
        if t.slots.(victim).valid then clear_slot t victim;
        Itab.replace t.index k victim;
        victim
    | i -> i
  in
  let e = t.slots.(i) in
  (* Same-tag overwrite: drop the old entry from the live counts first
     (a stale one was dropped already at its generation bump). *)
  if e.valid && is_live t e then begin
    t.valid_count <- t.valid_count - 1;
    t.asid_live.(e.asid) <- t.asid_live.(e.asid) - 1
  end;
  e.valid <- true;
  e.asid <- asid;
  e.vpn <- vpn;
  e.writable <- writable;
  e.gen <- t.asid_gen.(asid);
  t.valid_count <- t.valid_count + 1;
  t.asid_live.(asid) <- t.asid_live.(asid) + 1

let invalidate_key t k =
  match Itab.find t.index k with -1 -> () | i -> clear_slot t i

let invalidate t ~asid ~vpn = invalidate_key t (key ~asid ~vpn)

(* Drop every pending shootdown belonging to [asid]; a full-ASID flush
   subsumes them. After a removal the same slot is examined again: the
   shift may have moved a later entry of the run into it. Entries only
   ever move back along a run, so none escapes behind the scan. *)
let drop_asid_pendings t asid =
  let q = t.pending in
  let i = ref 0 in
  while !i <= q.Pending.mask do
    let k = q.Pending.keys.(!i) in
    if k <> -1 && k lsr 40 = asid then Pending.remove_at q !i else incr i
  done

let flush_asid t ~asid =
  ensure_asid t asid;
  let g = t.asid_gen.(asid) in
  if g + 1 >= t.gen_limit then begin
    (* Generation-word wraparound: reclaim every tagged entry of this
       asid eagerly (live or stale) so the reset to generation 0 cannot
       resurrect an old translation. *)
    Array.iteri
      (fun i e -> if e.valid && e.asid = asid then clear_slot t i)
      t.slots;
    t.asid_gen.(asid) <- 0
  end
  else begin
    (* O(1) bulk invalidation: everything tagged with the old generation
       is now stale and will be reclaimed lazily. *)
    t.valid_count <- t.valid_count - t.asid_live.(asid);
    t.asid_live.(asid) <- 0;
    t.asid_gen.(asid) <- g + 1
  end;
  drop_asid_pendings t asid

let flush_all t =
  Array.iter (fun e -> e.valid <- false) t.slots;
  Itab.clear t.index;
  t.valid_count <- 0;
  Array.fill t.asid_live 0 (Array.length t.asid_live) 0;
  Pending.clear t.pending

let valid_entries t = t.valid_count

let iter_live t f =
  Array.iter
    (fun e ->
      if is_live t e then f ~asid:e.asid ~vpn:e.vpn ~writable:e.writable)
    t.slots

(* -- deferred-shootdown queue ------------------------------------------ *)

let defer t ~asid ~vpn ~pte = Pending.replace t.pending (key ~asid ~vpn) pte
let find_pending t ~asid ~vpn = Pending.find t.pending (key ~asid ~vpn)
let pending_covers t ~asid ~vpn = Pending.mem t.pending (key ~asid ~vpn)
let cancel_pending t ~asid ~vpn = Pending.remove t.pending (key ~asid ~vpn)
let pending_count t = t.pending.Pending.count

let iter_pending t f =
  let q = t.pending in
  for i = 0 to q.Pending.mask do
    let k = q.Pending.keys.(i) in
    if k <> -1 then
      f ~asid:(k lsr 40) ~vpn:(k land vpn_mask) ~pte:q.Pending.words.(i)
  done

(* Every crossing drains, and the queue is almost always empty: then
   this is one comparison. The order in which queued tags are
   invalidated is not observable: each clears its own slot, and victim
   choice reads only slot validity and the RNG. *)
let invalidate_pending t =
  let q = t.pending in
  let n = q.Pending.count in
  if n > 0 then begin
    for i = 0 to q.Pending.mask do
      let k = q.Pending.keys.(i) in
      if k <> -1 then begin
        q.Pending.keys.(i) <- -1;
        invalidate_key t k
      end
    done;
    q.Pending.count <- 0
  end;
  n
