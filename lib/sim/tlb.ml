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

  let slot_of t k =
    let h = k * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land t.mask

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

type entry = {
  mutable valid : bool;
  mutable asid : int;
  mutable vpn : int;
  mutable writable : bool;
  mutable gen : int;  (* generation of the owning asid at insert time *)
}

type pending = { p_frame : int; p_writable : bool }

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
  pending : (int, pending) Hashtbl.t; (* deferred shootdowns, by tag key *)
  mutable pending_n : int;
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
    pending = Hashtbl.create 64;
    pending_n = 0;
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

let invalidate t ~asid ~vpn =
  match Itab.find t.index (key ~asid ~vpn) with
  | -1 -> ()
  | i -> clear_slot t i

(* Drop every pending shootdown belonging to [asid]; a full-ASID flush
   subsumes them. *)
let drop_asid_pendings t asid =
  let doomed =
    Hashtbl.fold
      (fun k _ acc -> if k lsr 40 = asid then k :: acc else acc)
      t.pending []
  in
  List.iter
    (fun k ->
      Hashtbl.remove t.pending k;
      t.pending_n <- t.pending_n - 1)
    doomed

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
  Hashtbl.reset t.pending;
  t.pending_n <- 0

let valid_entries t = t.valid_count

let iter_live t f =
  Array.iter
    (fun e ->
      if is_live t e then f ~asid:e.asid ~vpn:e.vpn ~writable:e.writable)
    t.slots

(* -- deferred-shootdown queue ------------------------------------------ *)

let defer t ~asid ~vpn ~frame ~writable =
  let k = key ~asid ~vpn in
  if not (Hashtbl.mem t.pending k) then t.pending_n <- t.pending_n + 1;
  Hashtbl.replace t.pending k { p_frame = frame; p_writable = writable }

let find_pending t ~asid ~vpn = Hashtbl.find_opt t.pending (key ~asid ~vpn)
let pending_covers t ~asid ~vpn = Hashtbl.mem t.pending (key ~asid ~vpn)

let cancel_pending t ~asid ~vpn =
  let k = key ~asid ~vpn in
  if Hashtbl.mem t.pending k then begin
    Hashtbl.remove t.pending k;
    t.pending_n <- t.pending_n - 1
  end

let pending_count t = t.pending_n

let iter_pending t f =
  Hashtbl.iter (fun k p -> f ~asid:(k lsr 40) ~vpn:(k land vpn_mask) p) t.pending

let take_pending t =
  (* Every crossing drains, and the queue is almost always empty: then
     neither the fold nor [List.sort] runs, which would build their
     closures first. *)
  let all =
    if t.pending_n = 0 then []
    else
      Hashtbl.fold
        (fun k _ acc -> (k lsr 40, k land vpn_mask) :: acc)
        t.pending []
  in
  Hashtbl.reset t.pending;
  t.pending_n <- 0;
  match all with [] -> [] | _ :: _ -> List.sort compare all
