open Fbufs_sim
open Fbufs_vm
module Mx = Fbufs_metrics.Metrics
module Comp = Fbufs_metrics.Component

let fbuf_alloc_cached_hit = Stats.counter "fbuf.alloc_cached_hit"
let fbuf_alloc_fresh = Stats.counter "fbuf.alloc_fresh"
let fbuf_page_zeroed = Stats.counter "fbuf.page_zeroed"
let k_page_alloc = Machine.kind "page.alloc"
let k_page_zero = Machine.kind "page.zero"

type policy = Lifo | Fifo

(* Buffer-sharing hooks (see Fbufs_policy). The allocator stays ignorant
   of policy semantics: it reports page-pool growth/shrink events and, for
   dynamic policies, asks permission before any allocation that would grow
   this path's held-page footprint. "Held" pages are those the allocator
   has charged to the path: every Active fbuf, plus parked fbufs still
   carrying their charge (fb.accounted) — a buffer loses its charge when
   it parks without physical memory, is paged out, or dies, and is charged
   again at its next allocation. The charge bit, not instantaneous
   residency, drives grow/shrink: residency can change under the
   allocator's feet (a touch of a paged-out parked buffer faults frames
   back in), and deciding from it would leak or double-count. *)
type share = {
  sh_dynamic : bool;
  sh_admit : npages:int -> growth:int -> unit;
  sh_grow : int -> unit;
  sh_shrink : int -> unit;
}

(* One size class of parked cached fbufs: a ring of [len] buffers from
   [ring.(head)], oldest first, in an array whose length is 0 or a power
   of two and doubles when full. Both policies park at the newest end;
   Lifo pops the newest, Fifo the oldest — O(1) either way. Parking
   allocates nothing once the ring has grown to the class's peak, where
   a list would cons a cell per free. Slots outside the ring keep stale
   buffers; they are never read. *)
type cls = { mutable ring : Fbuf.t array; mutable head : int; mutable len : int }

type t = {
  region : Region.t;
  path : Path.t;
  variant : Fbuf.variant;
  owner : Pd.t;
  policy : policy;
  free_classes : (int, cls) Hashtbl.t; (* npages -> parked fbufs *)
  mutable free_len : int; (* total parked, across classes *)
  mutable exts : int array;
  mutable nexts : int;
      (* the free address extents, sorted by base and coalesced: the i-th,
         for i < nexts, is exts.(2i+1) pages from base_vpn exts.(2i) *)
  mutable chunks : (int * int) list; (* owned (base_vpn, nchunks) *)
  mutable live : int;
  mutable torn_down : bool;
  mutable share : share option;
  on_freed : (Fbuf.t -> unit) option;
      (* [Some (on_all_freed t)], built once: every fresh fbuf takes it *)
}

let set_share t sh = t.share <- Some sh

let grow_hook t n =
  match t.share with None -> () | Some sh -> sh.sh_grow n

let shrink_hook t n =
  match t.share with None -> () | Some sh -> sh.sh_shrink n

let has_resident_memory (fb : Fbuf.t) =
  Vm_map.frame_of (Fbuf.originator fb).Pd.map ~vpn:fb.Fbuf.base_vpn <> -1

let buffer_resident = has_resident_memory
let buffer_accounted (fb : Fbuf.t) = fb.Fbuf.accounted

let path t = t.path
let variant t = t.variant
let owner t = t.owner
let region t = t.region
let free_list_length t = t.free_len
let live_fbufs t = t.live

let alloc_total =
  Mx.counter ~name:"fbufs_alloc_total"
    ~help:"Fbuf allocations by outcome (cached hit vs fresh VM setup)"
    ~labels:[ "machine"; "path"; "result" ] ()

let free_depth =
  Mx.gauge ~name:"fbufs_free_list_depth"
    ~help:"Parked cached fbufs across all size classes"
    ~labels:[ "machine"; "path" ] ()

let free_class =
  Mx.gauge ~name:"fbufs_free_class_fbufs"
    ~help:"Parked cached fbufs in one size class"
    ~labels:[ "machine"; "path"; "npages" ] ()

let live_gauge =
  Mx.gauge ~name:"fbufs_live_fbufs" ~help:"Fbufs currently held by domains"
    ~labels:[ "machine"; "path" ] ()

let reclaimed_total =
  Mx.counter ~name:"fbufs_reclaimed_fbufs_total"
    ~help:"Parked fbufs whose physical memory the pageout daemon reclaimed"
    ~labels:[ "machine"; "path" ] ()

let path_label t mx = Mx.int_label mx t.path.Path.id

(* Depth and live-count gauges are re-set from the authoritative fields
   after every state change, so they cannot drift from the allocator. *)
let sync_gauges t =
  let m = Region.machine t.region in
  match Machine.metrics m with
  | None -> ()
  | Some mx ->
      let path = path_label t mx in
      Mx.set2 mx free_depth m.Machine.name path (float_of_int t.free_len);
      Mx.set2 mx live_gauge m.Machine.name path (float_of_int t.live)

let note_class t npages delta =
  let m = Region.machine t.region in
  match Machine.metrics m with
  | None -> ()
  | Some mx ->
      Mx.add3 mx free_class m.Machine.name (path_label t mx)
        (Mx.int_label mx npages) delta

let cls_for t npages =
  match Hashtbl.find t.free_classes npages with
  | c -> c
  | exception Not_found ->
      let c = { ring = [||]; head = 0; len = 0 } in
      Hashtbl.add t.free_classes npages c;
      c

(* The [i]-th oldest buffer of a non-empty ring. *)
let nth c i = c.ring.((c.head + i) land (Array.length c.ring - 1))

let push_parked t (fb : Fbuf.t) =
  let c = cls_for t fb.Fbuf.npages in
  let cap = Array.length c.ring in
  if c.len = cap then begin
    let ring = Array.make (max 4 (2 * cap)) fb in
    for i = 0 to c.len - 1 do
      ring.(i) <- nth c i
    done;
    c.ring <- ring;
    c.head <- 0
  end;
  c.ring.((c.head + c.len) land (Array.length c.ring - 1)) <- fb;
  c.len <- c.len + 1;
  t.free_len <- t.free_len + 1;
  note_class t fb.Fbuf.npages 1.0

(* Every parked fbuf, in unspecified order; callers that care must sort.
   (Each class lists its newest first.) *)
let parked_fbufs t =
  Hashtbl.fold
    (fun _ c acc ->
      let acc = ref acc in
      for i = 0 to c.len - 1 do
        acc := nth c i :: !acc
      done;
      !acc)
    t.free_classes []

let clear_parked t =
  (let m = Region.machine t.region in
   match Machine.metrics m with
   | None -> ()
   | Some mx ->
       Hashtbl.iter
         (fun npages _ ->
           Mx.set3 mx free_class m.Machine.name (path_label t mx)
             (Mx.int_label mx npages) 0.0)
         t.free_classes);
  Hashtbl.reset t.free_classes;
  t.free_len <- 0

(* The free extents are kept sorted by base and coalesced: a returned
   range merges with the extents it touches, so fragmented returns
   re-form allocatable runs (without this, a torn-down set of small fbufs
   could never satisfy a larger request without growing the chunk
   footprint). Splitting and merging rewrite ints in place; a list of
   pairs would build a cell and a pair per change. *)

let ext_base t i = t.exts.(2 * i)
let ext_len t i = t.exts.((2 * i) + 1)

let set_ext t i ~base ~npages =
  t.exts.(2 * i) <- base;
  t.exts.((2 * i) + 1) <- npages

(* Move extents [i ..] up one place, growing the array when full. *)
let open_extent t i =
  if 2 * t.nexts = Array.length t.exts then begin
    let a = Array.make (max 2 (4 * t.nexts)) 0 in
    Array.blit t.exts 0 a 0 (2 * t.nexts);
    t.exts <- a
  end;
  Array.blit t.exts (2 * i) t.exts ((2 * i) + 2) (2 * (t.nexts - i));
  t.nexts <- t.nexts + 1

let close_extent t i =
  Array.blit t.exts ((2 * i) + 2) t.exts (2 * i) (2 * (t.nexts - i - 1));
  t.nexts <- t.nexts - 1

(* The first extent whose base is above [base], or [nexts]. *)
let rec extent_after t base i =
  if i = t.nexts || ext_base t i > base then i
  else extent_after t base (i + 1)

let add_extent t ~base ~npages =
  let i = extent_after t base 0 in
  let joins_left = i > 0 && ext_base t (i - 1) + ext_len t (i - 1) = base in
  let joins_right = i < t.nexts && base + npages = ext_base t i in
  if joins_left && joins_right then begin
    set_ext t (i - 1) ~base:(ext_base t (i - 1))
      ~npages:(ext_len t (i - 1) + npages + ext_len t i);
    close_extent t i
  end
  else if joins_left then
    set_ext t (i - 1) ~base:(ext_base t (i - 1))
      ~npages:(ext_len t (i - 1) + npages)
  else if joins_right then
    set_ext t i ~base ~npages:(npages + ext_len t i)
  else begin
    open_extent t i;
    set_ext t i ~base ~npages
  end

let release_chunks t =
  List.iter
    (fun (vpn, n) -> Region.free_chunks t.region t.owner ~vpn ~nchunks:n)
    t.chunks;
  t.chunks <- []

(* Called by Transfer when the last reference to one of our fbufs drops. *)
let on_all_freed t (fb : Fbuf.t) =
  match fb.Fbuf.state with
  | Fbuf.Cached_free ->
      if t.torn_down then begin
        shrink_hook t fb.Fbuf.npages;
        fb.Fbuf.accounted <- false;
        Transfer.destroy_cached fb;
        Region.unregister_fbuf t.region fb;
        t.live <- t.live - 1;
        if t.live = 0 then release_chunks t
      end
      else begin
        (* A parked buffer only keeps its held-page charge while it also
           keeps its frames; an Active buffer is always charged. *)
        if not (has_resident_memory fb) then begin
          shrink_hook t fb.Fbuf.npages;
          fb.Fbuf.accounted <- false
        end;
        push_parked t fb;
        t.live <- t.live - 1
      end
  | Fbuf.Dead ->
      shrink_hook t fb.Fbuf.npages;
      fb.Fbuf.accounted <- false;
      Region.unregister_fbuf t.region fb;
      add_extent t ~base:fb.Fbuf.base_vpn ~npages:fb.Fbuf.npages;
      t.live <- t.live - 1;
      if t.torn_down && t.live = 0 then release_chunks t
  | Fbuf.Active -> assert false

let on_all_freed t fb =
  on_all_freed t fb;
  sync_gauges t

let create region ~path ~variant ?(policy = Lifo) () =
  let rec t =
    {
      region;
      path;
      variant;
      owner = Path.originator path;
      policy;
      free_classes = Hashtbl.create 8;
      free_len = 0;
      exts = [||];
      nexts = 0;
      chunks = [];
      live = 0;
      torn_down = false;
      share = None;
      on_freed = Some (fun fb -> on_all_freed t fb);
    }
  in
  t

let default region ~owner =
  create region ~path:(Path.create [ owner ]) ~variant:Fbuf.volatile_only ()

(* First-fit over the sorted, coalesced free extents: the index of the
   first extent of at least [npages] pages, or [-1]. *)
let rec first_fit t ~npages i =
  if i = t.nexts then -1
  else if ext_len t i >= npages then i
  else first_fit t ~npages (i + 1)

let take_address_range t ~npages =
  match first_fit t ~npages 0 with
  | -1 ->
      let chunk_pages = (Region.config t.region).Region.chunk_pages in
      let nchunks = (npages + chunk_pages - 1) / chunk_pages in
      let base = Region.alloc_chunks t.region t.owner ~nchunks in
      t.chunks <- (base, nchunks) :: t.chunks;
      let slack = (nchunks * chunk_pages) - npages in
      if slack > 0 then add_extent t ~base:(base + npages) ~npages:slack;
      base
  | i ->
      (* Carve the fit's head; a loose fit leaves its remainder in place. *)
      let base = ext_base t i and n = ext_len t i in
      if n = npages then close_extent t i
      else set_ext t i ~base:(base + npages) ~npages:(n - npages);
      base

(* The buffer a cached allocation of [npages] reuses: the most (Lifo) or
   least (Fifo) recently freed one of exactly that size. O(1): one
   size-class lookup plus a ring index. *)
let next_index t c = match t.policy with Lifo -> c.len - 1 | Fifo -> 0

(* Pop that buffer; raises [Not_found], like [Hashtbl.find], when none is
   parked: an option would be a fresh block on every hit. *)
let pop_cached t ~npages =
  let c = Hashtbl.find t.free_classes npages in
  if c.len = 0 then raise Not_found;
  let fb = nth c (next_index t c) in
  (match t.policy with
  | Lifo -> ()
  | Fifo -> c.head <- (c.head + 1) land (Array.length c.ring - 1));
  c.len <- c.len - 1;
  t.free_len <- t.free_len - 1;
  note_class t npages (-1.0);
  fb

(* The buffer [pop_cached] would return, without popping it. Only
   consulted on the admission path of a dynamic sharing policy and by
   [needs_frames]. *)
let peek_cached t ~npages =
  match Hashtbl.find t.free_classes npages with
  | exception Not_found -> None
  | c -> if c.len = 0 then None else Some (nth c (next_index t c))

let fresh_fbuf t ~npages =
  let m = Region.machine t.region in
  let base_vpn = take_address_range t ~npages in
  let zero = (Region.config t.region).Region.zero_on_alloc in
  for i = 0 to npages - 1 do
    Machine.charge ~kind:k_page_alloc ~comp:Comp.Alloc m
      m.Machine.cost.Cost_model.page_alloc;
    let f = Phys_mem.alloc m.Machine.pmem in
    if zero then begin
      Machine.charge ~kind:k_page_zero ~comp:Comp.Zero m
        m.Machine.cost.Cost_model.page_zero;
      Stats.incr m.Machine.stats fbuf_page_zeroed;
      Phys_mem.zero m.Machine.pmem f
    end;
    Vm_map.map_frame t.owner.Pd.map ~vpn:(base_vpn + i) ~frame:f
      ~prot:Prot.Read_write ~eager:true
  done;
  let fb =
    Fbuf.make ~m ~id:(Machine.fresh_id m) ~base_vpn ~npages
      ~variant:t.variant ~path:t.path
  in
  (* Set once: a cached buffer only ever returns to this allocator, so
     its later lives keep the hook. *)
  fb.Fbuf.on_all_freed <- t.on_freed;
  Region.register_fbuf t.region fb;
  Stats.incr m.Machine.stats fbuf_alloc_fresh;
  fb

(* The rest of every allocation, cache hit or fresh: [fb] is Active and
   charged to the path. *)
let activate t m (fb : Fbuf.t) ~npages ~cache_hit =
  if Machine.tracing m then begin
    let open Fbufs_trace.Trace in
    Machine.trace_instant m ~domain:t.owner.Pd.name ~path_id:t.path.Path.id
      ~args:
        [
          ("fbuf", Int fb.Fbuf.id);
          ("npages", Int npages);
          ("cache", Str (if cache_hit then "hit" else "miss"));
        ]
      "fbuf.alloc";
    (* The async span is the causal backbone of one transfer: everything
       that happens to this buffer until its last free links to this id. *)
    Machine.async_begin m ~domain:t.owner.Pd.name ~path_id:t.path.Path.id
      ~id:fb.Fbuf.id "fbuf.life"
  end;
  (* The clock's field, not [Machine.now]: see [Clock.t]. *)
  fb.Fbuf.last_alloc.us <- m.Machine.clock.Clock.now;
  fb.Fbuf.xfer <- Machine.current_transfer m;
  Fbuf.add_ref fb t.owner;
  t.live <- t.live + 1;
  (match Machine.metrics m with
  | None -> ()
  | Some mx ->
      Mx.incr3 mx alloc_total m.Machine.name (path_label t mx)
        (if cache_hit then "hit" else "fresh"));
  sync_gauges t;
  fb

let alloc_fresh t m ~npages =
  let fb = fresh_fbuf t ~npages in
  grow_hook t npages;
  fb.Fbuf.accounted <- true;
  activate t m fb ~npages ~cache_hit:false

let alloc t ~npages =
  if t.torn_down then invalid_arg "Allocator.alloc: allocator was torn down";
  if npages <= 0 then invalid_arg "Allocator.alloc: npages must be positive";
  let m = Region.machine t.region in
  (* Admission control: a dynamic buffer-sharing policy may veto the
     allocation before any state changes (the hook raises to refuse).
     Growth is the number of pages this allocation would add to the
     path's held-page account: zero only when a still-charged cached
     buffer would be reused. *)
  (match t.share with
  | None -> ()
  | Some sh ->
      if sh.sh_dynamic then
        let growth =
          if t.variant.Fbuf.cached then
            match peek_cached t ~npages with
            | Some fb when fb.Fbuf.accounted -> 0
            | Some _ | None -> npages
          else npages
        in
        sh.sh_admit ~npages ~growth);
  if t.variant.Fbuf.cached then
    match pop_cached t ~npages with
    | fb ->
        (* The fast path: mappings, frames and contents are all reusable;
           no VM work and no clearing. *)
        if not fb.Fbuf.accounted then grow_hook t npages;
        fb.Fbuf.accounted <- true;
        fb.Fbuf.state <- Fbuf.Active;
        Stats.incr m.Machine.stats fbuf_alloc_cached_hit;
        activate t m fb ~npages ~cache_hit:true
    | exception Not_found -> alloc_fresh t m ~npages
  else alloc_fresh t m ~npages

let reclaim t ?(older_than_us = 0.0) ~max_fbufs () =
  (* LRU approximation: victims are the least recently *used* parked
     buffers that still hold physical memory and have been idle past the
     horizon; already-reclaimed buffers are skipped so repeated daemon
     sweeps make real progress or report none. Ties on age break on fbuf
     id (allocation order) so the sweep is deterministic regardless of
     size-class iteration order. *)
  let now = Machine.now (Region.machine t.region) in
  let resident =
    List.filter
      (fun fb ->
        has_resident_memory fb
        && now -. fb.Fbuf.last_alloc.us >= older_than_us)
      (parked_fbufs t)
  in
  let by_age =
    List.sort
      (fun (a : Fbuf.t) (b : Fbuf.t) ->
        match compare a.Fbuf.last_alloc.us b.Fbuf.last_alloc.us with
        | 0 -> compare a.Fbuf.id b.Fbuf.id
        | c -> c)
      resident
  in
  let take = min (max 0 max_fbufs) (List.length by_age) in
  let victims = List.filteri (fun i _ -> i < take) by_age in
  List.iter
    (fun (v : Fbuf.t) ->
      Transfer.reclaim_memory v;
      (* A victim that was re-materialized by a stray touch after an
         earlier pageout carries no charge; only charged pages leave the
         held account. *)
      if v.Fbuf.accounted then begin
        shrink_hook t v.Fbuf.npages;
        v.Fbuf.accounted <- false
      end)
    victims;
  let m = Region.machine t.region in
  (match Machine.metrics m with
  | None -> ()
  | Some mx ->
      if take > 0 then
        Mx.add2 mx reclaimed_total m.Machine.name (path_label t mx)
          (float_of_int take));
  if take > 0 && Machine.tracing m then
    Machine.trace_instant m ~domain:t.owner.Pd.name ~path_id:t.path.Path.id
      ~args:[ ("fbufs", Fbufs_trace.Trace.Int take) ]
      "fbuf.reclaim";
  take

(* Targeted reclaim of one specific parked buffer, used by the pageout
   daemon's deterministic sweep order and by a dynamic sharing policy's
   reclaim-before-drop eviction. Same externally visible effect per victim
   as one step of [reclaim]. *)
let reclaim_one t (fb : Fbuf.t) =
  if fb.Fbuf.state <> Fbuf.Cached_free then
    invalid_arg "Allocator.reclaim_one: fbuf is not parked";
  if not (List.memq fb (parked_fbufs t)) then
    invalid_arg "Allocator.reclaim_one: fbuf is not parked on this allocator";
  if not (has_resident_memory fb) then
    invalid_arg "Allocator.reclaim_one: fbuf holds no physical memory";
  Transfer.reclaim_memory fb;
  if fb.Fbuf.accounted then begin
    shrink_hook t fb.Fbuf.npages;
    fb.Fbuf.accounted <- false
  end;
  let m = Region.machine t.region in
  (match Machine.metrics m with
  | None -> ()
  | Some mx ->
      Mx.add2 mx reclaimed_total m.Machine.name (path_label t mx) 1.0);
  if Machine.tracing m then
    Machine.trace_instant m ~domain:t.owner.Pd.name ~path_id:t.path.Path.id
      ~args:[ ("fbufs", Fbufs_trace.Trace.Int 1) ]
      "fbuf.reclaim"

let needs_frames t ~npages =
  if not t.variant.Fbuf.cached then true
  else
    match peek_cached t ~npages with
    | Some fb -> not (has_resident_memory fb)
    | None -> true

(* Read-only introspection for the Fbufs_check invariant auditor. *)
let parked = parked_fbufs
let rec iter_extents_from t f i =
  if i < t.nexts then begin
    f ~base:(ext_base t i) ~npages:(ext_len t i);
    iter_extents_from t f (i + 1)
  end

let iter_extents t f = iter_extents_from t f 0
let owned_chunks t = t.chunks

let teardown t =
  if t.torn_down then invalid_arg "Allocator.teardown: already torn down";
  t.torn_down <- true;
  List.iter
    (fun fb ->
      if fb.Fbuf.accounted then begin
        shrink_hook t fb.Fbuf.npages;
        fb.Fbuf.accounted <- false
      end;
      Transfer.destroy_cached fb;
      Region.unregister_fbuf t.region fb)
    (parked_fbufs t);
  clear_parked t;
  if t.live = 0 then release_chunks t;
  sync_gauges t
